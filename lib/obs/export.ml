let write ~path content =
  let dir = Filename.dirname path in
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
    Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let write_metrics ~path m = write ~path (Metrics.to_json m)

let write_events ~path events = write ~path (Event.to_jsonl events)
