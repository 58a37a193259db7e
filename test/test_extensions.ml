(* Tests for the extension modules: RIPEMD-160, Merkle trees, tracing,
   and leader election. *)

(* --- RIPEMD-160 (official test vectors) ------------------------------------ *)

let test_ripemd_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Crypto.Ripemd160.hex_digest_string input))
    [
      ("", "9c1185a5c5e9fc54612808977ee8f548b2258d31");
      ("a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe");
      ("abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
      ("message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36");
      ("abcdefghijklmnopqrstuvwxyz", "f71c27109c692c1b56bbdceb5b9d2865b3708dbc");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "12a053384a9c0c88e405a06c27dcf49ada62eb2b" );
      ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "b0e20b6e3116640286ed3a87a5713079b21f5189" );
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "9b752e45573d4b39f4dbd3323cab82bf63326bfb" );
    ]

let test_ripemd_million_a () =
  Alcotest.(check string) "million a" "52783243c1697bdbe16d37f97f68f08325dc1528"
    (Crypto.Ripemd160.hex_digest_string (String.make 1_000_000 'a'))

let test_ripemd_size () =
  Alcotest.(check int) "20 bytes" Crypto.Ripemd160.digest_size
    (Bytes.length (Crypto.Ripemd160.digest_string "x"))

(* --- Merkle ------------------------------------------------------------------ *)

let leaves n = List.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_verify_all_leaves () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let tree = Crypto.Merkle.build ls in
      Alcotest.(check int) "leaf count" n (Crypto.Merkle.leaf_count tree);
      List.iteri
        (fun i leaf ->
          let path = Crypto.Merkle.prove tree ~index:i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d leaf %d" n i)
            true
            (Crypto.Merkle.verify ~root:(Crypto.Merkle.root tree) ~index:i ~leaf path))
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 16; 33 ]

let test_merkle_rejects_wrong_leaf () =
  let tree = Crypto.Merkle.build (leaves 8) in
  let path = Crypto.Merkle.prove tree ~index:3 in
  Alcotest.(check bool) "wrong leaf" false
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root tree) ~index:3
       ~leaf:(Bytes.of_string "forged") path);
  Alcotest.(check bool) "wrong index" false
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root tree) ~index:4
       ~leaf:(Bytes.of_string "leaf-3") path)

let test_merkle_root_depends_on_order () =
  let a = Crypto.Merkle.build (leaves 4) in
  let b = Crypto.Merkle.build (List.rev (leaves 4)) in
  Alcotest.(check bool) "different roots" false
    (Bytes.equal (Crypto.Merkle.root a) (Crypto.Merkle.root b))

let test_merkle_path_serialization () =
  let tree = Crypto.Merkle.build (leaves 5) in
  let path = Crypto.Merkle.prove tree ~index:4 in
  let back = Crypto.Merkle.path_of_bytes (Crypto.Merkle.path_to_bytes path) in
  Alcotest.(check int) "length" (Crypto.Merkle.path_length path) (Crypto.Merkle.path_length back);
  Alcotest.(check bool) "still verifies" true
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root tree) ~index:4
       ~leaf:(Bytes.of_string "leaf-4") back)

let test_merkle_size_tradeoff () =
  (* the Section 6.1 optimization: for a 300-phase key array (1500
     leaves), one path is far smaller than the whole VK array *)
  let leaves = 1500 in
  Alcotest.(check bool) "path much smaller" true
    (Crypto.Merkle.path_size ~leaves * 20 < Crypto.Merkle.array_size ~leaves);
  Alcotest.(check int) "array size" (1500 * 32) (Crypto.Merkle.array_size ~leaves)

let test_merkle_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves") (fun () ->
      ignore (Crypto.Merkle.build []))

let qcheck_merkle_random =
  QCheck.Test.make ~name:"merkle verify on random trees" ~count:60
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, pick) ->
      let ls = List.init n (fun i -> Bytes.of_string (Printf.sprintf "%d-%d" i (i * 7))) in
      let tree = Crypto.Merkle.build ls in
      let index = pick mod n in
      let path = Crypto.Merkle.prove tree ~index in
      Crypto.Merkle.verify ~root:(Crypto.Merkle.root tree) ~index
        ~leaf:(List.nth ls index) path)

(* --- tracing ------------------------------------------------------------------ *)

let test_trace_off_by_default () =
  Obs.Trace2.clear ();
  Obs.Trace2.stop ();
  Obs.Trace2.emit ~time:1.0 ~node:0 ~layer:"x" ~label:"y" [];
  Alcotest.(check int) "nothing collected" 0 (List.length (Obs.Trace2.events ()))

let test_trace_collects_and_limits () =
  Obs.Trace2.start ~limit:5 ();
  for i = 0 to 9 do
    Obs.Trace2.emit ~time:(float_of_int i) ~node:i ~layer:"l" ~label:"e" []
  done;
  Obs.Trace2.stop ();
  Alcotest.(check int) "kept" 5 (List.length (Obs.Trace2.events ()));
  Alcotest.(check int) "dropped" 5 (Obs.Trace2.dropped ());
  let rendered = Obs.Trace2.render () in
  Alcotest.(check bool) "mentions drop" true
    (String.length rendered > 0);
  Obs.Trace2.clear ()

let test_trace_captures_protocol_run () =
  Obs.Trace2.start ();
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4 ~dist:Harness.Runner.Unanimous
      ~load:Net.Fault.Failure_free ~seed:77L ()
  in
  Obs.Trace2.stop ();
  Alcotest.(check bool) "run decided" true (List.length r.latencies = 4);
  let events = Obs.Trace2.events () in
  let decides =
    List.filter (fun e -> e.Obs.Trace2.layer = "turquois" && e.label = "decide") events
  in
  Alcotest.(check int) "four decide events" 4 (List.length decides);
  Alcotest.(check bool) "radio traffic traced" true
    (List.exists (fun e -> e.Obs.Trace2.layer = "radio") events);
  (* timestamps are nondecreasing *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Obs.Trace2.time <= b.Obs.Trace2.time && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone events);
  Obs.Trace2.clear ()

(* --- election ------------------------------------------------------------------ *)

let run_election ~n ~alive_matrix ~seed =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.01;
  let cfg = { (Core.Proto.default_config ~n) with max_phases = 45 } in
  let keyrings =
    Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:(n * cfg.max_phases) ()
  in
  let elections =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Election.create node cfg ~keyring:keyrings.(i)
          ~alive:(fun c -> alive_matrix i c) ())
  in
  let settled = ref 0 in
  Array.iter
    (fun e -> Core.Election.on_elect e (fun ~leader:_ -> incr settled))
    elections;
  Array.iter Core.Election.start elections;
  Net.Engine.run_while engine (fun () -> Net.Engine.now engine < 30.0 && !settled < n);
  Array.map Core.Election.leader elections

let test_election_unanimous_first () =
  (* everyone believes everyone is alive: candidate 0 wins *)
  let leaders = run_election ~n:4 ~alive_matrix:(fun _ _ -> true) ~seed:90L in
  Array.iter (fun l -> Alcotest.(check (option int)) "leader 0" (Some 0) l) leaders

let test_election_skips_dead_candidates () =
  (* nobody trusts candidates 0 and 1 *)
  let leaders = run_election ~n:4 ~alive_matrix:(fun _ c -> c >= 2) ~seed:91L in
  Array.iter (fun l -> Alcotest.(check (option int)) "leader 2" (Some 2) l) leaders

let test_election_exhausted () =
  let leaders = run_election ~n:4 ~alive_matrix:(fun _ _ -> false) ~seed:92L in
  Array.iter (fun l -> Alcotest.(check (option int)) "no leader" (Some (-1)) l) leaders

let test_election_agreement_under_mixed_views () =
  (* views disagree about candidate 0; whatever the outcome, it is the
     same at every process *)
  let leaders =
    run_election ~n:4 ~alive_matrix:(fun i c -> if c = 0 then i mod 2 = 0 else true) ~seed:93L
  in
  let first = leaders.(0) in
  Alcotest.(check bool) "settled" true (first <> None);
  Array.iter (fun l -> Alcotest.(check (option int)) "same leader" first l) leaders

let suite =
  ( "extensions",
    [
      Alcotest.test_case "ripemd vectors" `Quick test_ripemd_vectors;
      Alcotest.test_case "ripemd million a" `Slow test_ripemd_million_a;
      Alcotest.test_case "ripemd size" `Quick test_ripemd_size;
      Alcotest.test_case "merkle all leaves" `Quick test_merkle_verify_all_leaves;
      Alcotest.test_case "merkle wrong leaf" `Quick test_merkle_rejects_wrong_leaf;
      Alcotest.test_case "merkle order" `Quick test_merkle_root_depends_on_order;
      Alcotest.test_case "merkle path serialization" `Quick test_merkle_path_serialization;
      Alcotest.test_case "merkle size tradeoff" `Quick test_merkle_size_tradeoff;
      Alcotest.test_case "merkle empty" `Quick test_merkle_empty_rejected;
      QCheck_alcotest.to_alcotest qcheck_merkle_random;
      Alcotest.test_case "trace off" `Quick test_trace_off_by_default;
      Alcotest.test_case "trace limit" `Quick test_trace_collects_and_limits;
      Alcotest.test_case "trace protocol run" `Quick test_trace_captures_protocol_run;
      Alcotest.test_case "election first" `Quick test_election_unanimous_first;
      Alcotest.test_case "election skips dead" `Quick test_election_skips_dead_candidates;
      Alcotest.test_case "election exhausted" `Quick test_election_exhausted;
      Alcotest.test_case "election mixed views" `Quick test_election_agreement_under_mixed_views;
    ] )
