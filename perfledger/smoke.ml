(* Smoke check of the ledger's output contract:

     smoke.exe BENCHMARK.json ./ledger.exe

   Runs every workload BENCHMARK.json names in quick mode, untraced and
   traced, and checks that each process exits 0 and that its last stdout
   line is a correct result carrying every end-to-end (untraced) or
   per-layer (traced) metric BENCHMARK.json names, each a finite number. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse what text =
  match Obs.Json.parse text with
  | Ok json -> json
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let field key json =
  match Obs.Json.member key json with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing key %S" key)

let names key doc =
  List.map
    (fun entry -> Option.get (Obs.Json.to_str (field "name" entry)))
    (Option.get (Obs.Json.to_list (field key doc)))

let last_line text =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
  | line :: _ -> line
  | [] -> ""

let check ~ledger ~workload ~trace expected =
  let args = [| ledger; "--workload"; workload; "--quick"; "--trace"; string_of_int trace |] in
  let ic = Unix.open_process_args_in ledger args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "ledger exited with an error");
  let result = parse "result line" (last_line out) in
  if Obs.Json.to_bool (field "correct" result) <> Some true then failwith "not correct";
  (match Obs.Json.to_int (field "attempted" result) with
  | Some a when a >= 1 -> ()
  | _ -> failwith "attempted < 1");
  let metrics = field "metrics" result in
  List.iter
    (fun name ->
      match Option.bind (Obs.Json.member name metrics) (Obs.Json.member "value") with
      | Some v -> (
          match Obs.Json.to_float v with
          | Some f when Float.is_finite f -> ()
          | _ -> failwith (Printf.sprintf "metric %s is not a finite number" name))
      | None -> failwith (Printf.sprintf "metric %s is missing" name))
    expected

let () =
  let doc = parse Sys.argv.(1) (read_file Sys.argv.(1)) in
  let ledger =
    let path = Sys.argv.(2) in
    (* a bare name would be searched for on PATH *)
    if Filename.is_implicit path then Filename.concat Filename.current_dir_name path
    else path
  in
  let failures = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          match check ~ledger ~workload ~trace (names key doc) with
          | () -> Printf.printf "smoke: %s --trace %d ok\n%!" workload trace
          | exception Failure msg ->
              incr failures;
              Printf.printf "smoke: %s --trace %d FAILED: %s\n%!" workload trace msg)
        [ (0, "end_to_end"); (1, "per_layer") ])
    (names "workloads" doc);
  if !failures > 0 then exit 1
