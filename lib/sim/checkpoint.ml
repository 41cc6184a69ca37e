type t = {
  dir : string;
  key : string;
  lock : Mutex.t;  (* [store] and [load] run on worker domains *)
  mutable oc : out_channel option;  (* the journal, from first store to close *)
  mutable index : (int, string) Hashtbl.t option;
      (* verified payloads by chunk: read on first load, kept by [store] *)
}

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

let create ~root ~exp ~seed ~chunk_size ~n =
  (* Sanitization is lossy ("e1/a" and "e1 a" both become "e1_a"), so the
     directory name carries a short hash of the raw id to keep distinct
     experiments from sharing — and clobbering — one store. *)
  let tag = String.sub (Digest.to_hex (Digest.string exp)) 0 8 in
  let dir =
    Filename.concat root (Printf.sprintf "%s-%s-%d" (sanitize exp) tag seed)
  in
  (* [fmt] is the file-format/accumulator-schema generation: bumped
     whenever a checkpointed acc type changes shape or the record format
     changes (fmt=2: the runner acc gained its observability slice;
     fmt=3: the header gained the payload-digest line; fmt=4: every fold
     stores its model acc inside the generic chunk record; fmt=5: one
     append-only journal per store), so records from an older binary are
     rejected by the key check instead of marshalled into the wrong
     layout. *)
  let key =
    Printf.sprintf "exp=%s;seed=%d;chunk_size=%d;n=%d;fmt=5" exp seed
      chunk_size n
  in
  { dir; key; lock = Mutex.create (); oc = None; index = None }

let dir t = t.dir

let journal t = Filename.concat t.dir "journal"

(* A record is ["\n<key>\n<chunk> <length> <md5>\n<payload>"]. The digest
   covers the chunk index with the payload, so a flipped bit in either
   fails verification instead of handing a chunk another chunk's value. *)
let digest ~chunk payload =
  Digest.to_hex (Digest.string (string_of_int chunk ^ "\n" ^ payload))

(* Raise the armed fault [kind] at [site]: a crash as {!Fault.Injected},
   the other kinds as the [Sys_error] a failing filesystem would raise. *)
let fail site chunk kind =
  match kind with
  | Fault.Crash -> raise (Fault.Injected { site; scope = chunk; kind })
  | Fault.Sys_err | Fault.Torn_write | Fault.Bit_flip ->
      raise (Sys_error (Fault.describe site ~scope:chunk kind))

(* Flip one payload bit, mid-string: enough to break the digest, small
   enough that Marshal would happily misparse it if the digest check were
   missing. *)
let flip_bit s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let store ?fault t ~chunk acc =
  let good = Marshal.to_string acc [] in
  let kind = Fault.fire fault Fault.Checkpoint_store ~scope:chunk in
  let payload =
    match kind with
    | None -> good
    | Some Fault.Torn_write -> String.sub good 0 (String.length good / 2)
    | Some Fault.Bit_flip -> flip_bit good
    | Some k -> fail Fault.Checkpoint_store chunk k
  in
  Mutex.protect t.lock (fun () ->
      let oc =
        match t.oc with
        | Some oc -> oc
        | None ->
            mkdir_p t.dir;
            let flags = [ Open_wronly; Open_append; Open_creat; Open_binary ] in
            let oc = open_out_gen flags 0o644 (journal t) in
            t.oc <- Some oc;
            oc
      in
      (* The header always carries the intended payload's length and
         digest, so any corruption of the bytes that follow it — injected
         or real — is detected on load. *)
      Printf.fprintf oc "\n%s\n%d %d %s\n%s%!" t.key chunk
        (String.length good) (digest ~chunk good) payload;
      if Option.is_none kind then
        Option.iter (fun index -> Hashtbl.replace index chunk good) t.index);
  (* The corruption kinds model a crash that lost payload bytes: the bad
     record stays in the journal, and the store call still fails. The
     retry's [load] consult does not trust it and the chunk is
     recomputed. *)
  Option.iter (fail Fault.Checkpoint_store chunk) kind

(* Index the record at [h] when its key is [t]'s, its header parses, its
   payload is complete and its digest verifies, and say where the scan
   goes on: past a verified record, or at the next line start after one
   that cannot be trusted — torn, corrupt or alien — since its length
   field is not to be trusted either. *)
let record t s index h =
  let line i =
    Option.map
      (fun j -> (String.sub s i (j - i), j + 1))
      (String.index_from_opt s i '\n')
  in
  match line (h + 1) with
  | Some (key, i) when key = t.key -> (
      match
        Option.bind (line i) (fun (meta, p) ->
            Scanf.sscanf_opt meta "%d %d %s%!" (fun c n d -> (c, n, d, p)))
      with
      | Some (chunk, n, d, p) when n >= 0 && p + n <= String.length s ->
          let payload = String.sub s p n in
          if d <> digest ~chunk payload then h + 1
          else begin
            Hashtbl.replace index chunk payload;
            p + n
          end
      | _ -> h + 1)
  | _ -> h + 1

(* Every verified record of [t] in journal [s], the latest per chunk. *)
let scan t s =
  let index = Hashtbl.create 32 in
  let rec from p =
    Option.iter
      (fun h -> from (record t s index h))
      (String.index_from_opt s p '\n')
  in
  from 0;
  index

let load ?fault t ~chunk =
  match Fault.fire fault Fault.Checkpoint_load ~scope:chunk with
  (* Latent corruption discovered at read time: the chunk's record cannot
     be trusted, so the chunk is recomputed. *)
  | Some (Fault.Torn_write | Fault.Bit_flip) -> None
  | Some k -> fail Fault.Checkpoint_load chunk k
  | None -> (
      let payload =
        Mutex.protect t.lock (fun () ->
            if Option.is_none t.index then begin
              let s =
                try In_channel.with_open_bin (journal t) In_channel.input_all
                with Sys_error _ -> ""
              in
              t.index <- Some (scan t s)
            end;
            Option.bind t.index (fun index -> Hashtbl.find_opt index chunk))
      in
      (* The digest matches, so Marshal sees exactly the bytes [store]
         wrote; a raise here would mean an fmt-key bookkeeping bug, and
         recomputing is still safer than crashing the run. *)
      Option.bind payload (fun p ->
          try Some (Marshal.from_string p 0) with _ -> None))

(* Close the journal. [sync] fsyncs it first, best-effort: every record
   is already flushed to the OS and a resume verifies each one, so a
   failed fsync only weakens durability. *)
let shut t ~sync =
  Option.iter
    (fun oc ->
      let fd = Unix.descr_of_out_channel oc in
      (try if sync then Unix.fsync fd with Unix.Unix_error _ -> ());
      close_out_noerr oc)
    t.oc;
  t.oc <- None

let close t = Mutex.protect t.lock (fun () -> shut t ~sync:true)

let clear t =
  Mutex.protect t.lock (fun () ->
      shut t ~sync:false;
      t.index <- None);
  if Sys.file_exists t.dir && Sys.is_directory t.dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
      (Sys.readdir t.dir);
    try Sys.rmdir t.dir with Sys_error _ -> ()
  end
