type t = { dir : string; key : string }

(* Keep directory names portable: the experiment id may contain slashes or
   spaces in principle; everything outside [A-Za-z0-9._-] becomes '_'. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    s

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Stale debris from earlier runs: a SIGKILL between [open_out_bin] and
   [Sys.rename] in [store] leaves a [chunk-N.tmp] behind, and a run that
   quarantined a corrupt file leaves a [chunk-N.corrupt]. Both are inert
   (loads go through the renamed chunk file only) but accumulate across
   crashed runs, so sweep them whenever a store is (re-)opened over an
   existing directory. *)
let sweep_stale dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" || Filename.check_suffix f ".corrupt"
        then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let create ~root ~exp ~seed ~chunk_size ~n =
  (* Sanitization is lossy ("e1/a" and "e1 a" both become "e1_a"), so the
     directory name carries a short hash of the raw id to keep distinct
     experiments from sharing — and clobbering — one store. *)
  let tag = String.sub (Digest.to_hex (Digest.string exp)) 0 8 in
  let dir =
    Filename.concat root (Printf.sprintf "%s-%s-%d" (sanitize exp) tag seed)
  in
  sweep_stale dir;
  (* [fmt] is the file-format/accumulator-schema generation: bumped
     whenever a checkpointed acc type changes shape or the header format
     changes (fmt=2: the runner acc gained its observability slice;
     fmt=3: the header gained the payload-digest line; fmt=4: every fold
     stores its model acc inside the generic chunk record), so files from an
     older binary are rejected by the key check instead of marshalled
     into the wrong layout. *)
  let key =
    Printf.sprintf "exp=%s;seed=%d;chunk_size=%d;n=%d;fmt=4" exp seed
      chunk_size n
  in
  { dir; key }

let dir t = t.dir

let chunk_file t c = Filename.concat t.dir (Printf.sprintf "chunk-%d" c)

let injected_msg site chunk what =
  Printf.sprintf "injected fault: %s@%d:%s" (Fault.site_label site) chunk what

(* Flip one payload bit, mid-string: enough to break the digest, small
   enough that Marshal would happily misparse it if the digest check were
   missing. *)
let flip_bit s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let store ?fault t ~chunk acc =
  mkdir_p t.dir;
  let path = chunk_file t chunk in
  let good = Marshal.to_string acc [] in
  (* The header digest always covers the intended payload, so any
     corruption of the bytes that follow it — injected or real — is
     detected on load. *)
  let digest = Digest.to_hex (Digest.string good) in
  let kind = Fault.fire fault Fault.Checkpoint_store ~scope:chunk in
  (match kind with
  | Some Fault.Crash ->
      raise
        (Fault.Injected
           { site = Fault.Checkpoint_store; scope = chunk; kind = Fault.Crash })
  | Some Fault.Sys_err ->
      raise (Sys_error (injected_msg Fault.Checkpoint_store chunk "sys_error"))
  | Some Fault.Torn_write | Some Fault.Bit_flip | None -> ());
  let payload =
    match kind with
    | Some Fault.Torn_write -> String.sub good 0 (String.length good / 2)
    | Some Fault.Bit_flip -> flip_bit good
    | _ -> good
  in
  (* Write-then-fsync-then-rename: a killed run leaves at worst a stale
     [.tmp], and the renamed file's bytes are durable before it becomes
     visible under the chunk name. The rename target is per-chunk, so
     concurrent workers storing distinct chunks need no locking. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc t.key;
      output_char oc '\n';
      output_string oc digest;
      output_char oc '\n';
      output_string oc payload;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* The corruption kinds model a crash that completed the rename but
     lost payload bytes: the corrupt file is now durable under the chunk
     name, and the store call still fails. The retry's [load] consult
     finds the file, sees the digest mismatch, and quarantines it. *)
  match kind with
  | Some Fault.Torn_write ->
      raise (Sys_error (injected_msg Fault.Checkpoint_store chunk "torn"))
  | Some Fault.Bit_flip ->
      raise (Sys_error (injected_msg Fault.Checkpoint_store chunk "bitflip"))
  | _ -> ()

(* Corrupt an existing chunk file in place (the load-site Bit_flip /
   Torn_write faults: latent media corruption discovered at read time).
   A missing file is left missing. *)
let corrupt_in_place path kind =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let contents =
      match kind with
      | Fault.Torn_write -> String.sub contents 0 (String.length contents / 2)
      | _ -> if contents = "" then "\x00" else flip_bit contents
    in
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents)
  end

(* A file that cannot be trusted is moved aside, never deleted: the
   [.corrupt] name keeps it out of every load path (and visible for a
   post-mortem) until [clear] or the next store's sweep retires it. *)
let quarantine path =
  let q = path ^ ".corrupt" in
  (try if Sys.file_exists q then Sys.remove q with Sys_error _ -> ());
  try Sys.rename path q with Sys_error _ -> ()

let load ?fault t ~chunk =
  let path = chunk_file t chunk in
  (match Fault.fire fault Fault.Checkpoint_load ~scope:chunk with
  | None -> ()
  | Some Fault.Crash ->
      raise
        (Fault.Injected
           { site = Fault.Checkpoint_load; scope = chunk; kind = Fault.Crash })
  | Some Fault.Sys_err ->
      raise (Sys_error (injected_msg Fault.Checkpoint_load chunk "sys_error"))
  | Some ((Fault.Torn_write | Fault.Bit_flip) as k) -> corrupt_in_place path k);
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let verdict =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> `Corrupt (* empty or headerless file *)
          | key when key <> t.key ->
              (* The key line pins (exp, seed, chunk_size, n, fmt); a file
                 written under any other configuration — or any earlier
                 format generation — is alien to this store. *)
              `Corrupt
          | _ -> (
              match input_line ic with
              | exception End_of_file -> `Corrupt
              | digest -> (
                  let payload =
                    try
                      Some
                        (really_input_string ic
                           (in_channel_length ic - pos_in ic))
                    with End_of_file | Invalid_argument _ -> None
                  in
                  match payload with
                  | None -> `Corrupt
                  | Some payload ->
                      if
                        String.length digest <> 32
                        || digest <> Digest.to_hex (Digest.string payload)
                      then `Corrupt
                      else begin
                        (* The digest matches, so Marshal sees exactly the
                           bytes [store] wrote; a raise here would mean an
                           fmt-key bookkeeping bug, and quarantining is
                           still safer than crashing the run. *)
                        match Marshal.from_string payload 0 with
                        | v -> `Ok v
                        | exception _ -> `Corrupt
                      end)))
    in
    match verdict with
    | `Ok v -> Some v
    | `Corrupt ->
        quarantine path;
        None
  end

let clear t =
  if Sys.file_exists t.dir && Sys.is_directory t.dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
      (Sys.readdir t.dir);
    try Sys.rmdir t.dir with Sys_error _ -> ()
  end
