(* The hot-path contract (the per-run message store, shared key
   material, encode-once, SHA-256 fast path, Vset tallies): the fast
   path may change wall-clock time only, never a simulated result. Each
   test compares a fast structure against its naive recomputation; the
   whole-run cases are rows of the equivalence table (test/equiv.ml). *)

module P = Core.Proto
module S = Core.Msgstore

let mk ?(sender = 0) ~phase ?(value = P.V1) ?(origin = P.Deterministic)
    ?(status = P.Undecided) ?(proof = Bytes.empty) () =
  { Core.Message.sender; phase; value; origin; status; proof }

(* key material generated afresh and key material served from the
   per-domain key cache give the same sweep, instrumentation counters
   included (the -j half is pool's "sweep identical across jobs") *)
let test_sweep_memo_equivalent_and_parallel () = Equiv.(check fresh_keys sigma_sweep)

(* --- instrumentation -------------------------------------------------------- *)

let run_failure_free () =
  Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
    ~dist:Harness.Runner.Unanimous ~load:Net.Fault.Failure_free ~seed:3L ()

let test_memo_on_hits () =
  (* a broadcast reaches n-1 receivers: all but the first decode of a
     payload and all but the first hash of a proof must hit *)
  let r = run_failure_free () in
  Alcotest.(check bool) "decode hits" true
    (Obs.Metrics.counter_value r.metrics "codec.decode.memo_hit" > 0);
  Alcotest.(check bool) "digest hits" true
    (Obs.Metrics.counter_value r.metrics "crypto.verify.cache_hit" > 0)

(* --- profiler / causal tracing invisibility ---------------------------------- *)

(* the span profiler reads the host clock only, whether it runs on this
   domain (-j 1) or on pool workers too (-j 2) *)
let test_profiler_invisible_to_results () = Equiv.(check profiling sigma_sweep)

(* tracing turns on mid minting and byte aliasing across every layer of
   the radio stack; none of it may touch the simulation clock, RNG or
   metrics *)
let test_causal_tracing_invisible_to_results () = Equiv.(check tracing strategies)

let test_profiler_span_mechanics () =
  Obs.Prof.with_profiling true (fun () ->
      Obs.Prof.reset ();
      let t0 = Obs.Prof.start () in
      Alcotest.(check bool) "start yields a real timestamp" true (t0 >= 0.0);
      Obs.Prof.stop Obs.Prof.decode t0;
      let stat =
        List.find
          (fun (s : Obs.Prof.stat) -> s.name = Obs.Prof.span_name Obs.Prof.decode)
          (Obs.Prof.snapshot ())
      in
      Alcotest.(check int) "one sample" 1 stat.count;
      Alcotest.(check bool) "quantile within bucket bounds" true
        (Obs.Prof.bucket_quantile stat 0.5 >= stat.max_ns));
  (* off: the sentinel makes stop a no-op *)
  Obs.Prof.reset ();
  let t0 = Obs.Prof.start () in
  Alcotest.(check bool) "sentinel when off" true (t0 < 0.0);
  Obs.Prof.stop Obs.Prof.decode t0;
  Alcotest.(check bool) "no sample recorded when off" true
    (List.for_all (fun (s : Obs.Prof.stat) -> s.count = 0) (Obs.Prof.snapshot ()))

(* --- store poisoning -------------------------------------------------------- *)

let keyrings = lazy (Core.Keyring.setup (Util.Rng.create ~seed:5L) ~n:2 ~phases:4 ())

let signed_envelope () =
  let keyrings = Lazy.force keyrings in
  let proof =
    Core.Keyring.sign keyrings.(0) ~phase:1 ~value:P.V1 ~origin:P.Deterministic
  in
  { Core.Message.msg = mk ~sender:0 ~phase:1 ~proof (); justification = [] }

(* flip one payload byte, scanning from the tail (the proof bytes), so
   the forgery shares a long prefix with the valid frame but still
   decodes to a different envelope *)
let forge payload =
  let reference = Core.Message.decode payload in
  let rec go i =
    if i < 0 then Alcotest.fail "no forgeable byte found"
    else begin
      let b = Bytes.copy payload in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      match Core.Message.decode b with
      | e when e <> reference -> b
      | _ -> go (i - 1)
      | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> go (i - 1)
    end
  in
  go (Bytes.length payload - 1)

let test_decode_cache_rejects_forged_prefix () =
  let envelope = signed_envelope () in
  let payload = Core.Message.encode envelope in
  let forged = forge payload in
  let (), snap =
    Obs.Scope.with_run (fun () ->
        let store = S.current () in
        let f1 = S.decode store payload in
        let f2 = S.decode store (Bytes.copy payload) in
        Alcotest.(check bool) "same payload same frame" true (f1 = f2);
        let f3 = S.decode store forged in
        Alcotest.(check bool) "forged payload never hits the valid entry" true
          (f3.S.msg <> f1.S.msg);
        Alcotest.(check bool) "forged decode matches plain decode" true
          (S.get store f3.S.msg = (Core.Message.decode_wire forged).Core.Message.wmsg))
  in
  (* hits only on exact byte equality: the content-equal copy hit, the
     prefix-sharing forgery missed *)
  Alcotest.(check int) "one hit" 1
    (Obs.Metrics.counter_value snap "codec.decode.memo_hit");
  Alcotest.(check int) "two misses" 2
    (Obs.Metrics.counter_value snap "codec.decode.memo_miss")

let test_digest_memo_rejects_forged_proof () =
  let keyrings = Lazy.force keyrings in
  let envelope = signed_envelope () in
  let valid = envelope.Core.Message.msg in
  let forged_proof = Bytes.copy valid.Core.Message.proof in
  Bytes.set forged_proof
    (Bytes.length forged_proof - 1)
    (Char.chr (Char.code (Bytes.get forged_proof (Bytes.length forged_proof - 1)) lxor 1));
  let forged = { valid with Core.Message.proof = forged_proof } in
  let (), snap =
    Obs.Scope.with_run (fun () ->
        let store = S.current () in
        let v = S.intern store valid and f = S.intern store forged in
        Alcotest.(check bool) "header twins stored apart" true (v <> f);
        Alcotest.(check bool) "valid accepted (miss)" true (S.check store keyrings.(1) v);
        Alcotest.(check bool) "valid accepted (hit)" true (S.check store keyrings.(1) v);
        Alcotest.(check bool) "forged rejected through the store" false
          (S.check store keyrings.(1) f);
        Alcotest.(check bool) "store verdicts match plain verdicts" true
          (Core.Keyring.check_message keyrings.(1) valid
          && not (Core.Keyring.check_message keyrings.(1) forged)))
  in
  Alcotest.(check int) "one hit" 1
    (Obs.Metrics.counter_value snap "crypto.verify.cache_hit");
  Alcotest.(check int) "two misses" 2
    (Obs.Metrics.counter_value snap "crypto.verify.cache_miss")

(* --- sha256 fast path ------------------------------------------------------- *)

let test_sha256_fast_path_matches_streaming () =
  (* the one-block path covers len <= 55; cross the boundary and the
     two-block region to make sure both worlds agree *)
  let rng = Util.Rng.create ~seed:11L in
  for len = 0 to 70 do
    let data = Util.Rng.bytes rng len in
    let streamed =
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.update ctx data;
      Crypto.Sha256.finalize ctx
    in
    Alcotest.(check bool)
      (Printf.sprintf "len %d" len)
      true
      (Bytes.equal (Crypto.Sha256.digest data) streamed)
  done

let test_sha256_digest_not_aliased () =
  (* the fast path reuses domain-local scratch; the returned digest must
     still be a fresh buffer every call *)
  let a = Bytes.of_string "proof-a" in
  let b = Bytes.of_string "proof-b" in
  let da = Crypto.Sha256.digest a in
  let copy = Bytes.copy da in
  let db = Crypto.Sha256.digest b in
  Alcotest.(check bool) "first digest unchanged" true (Bytes.equal da copy);
  Alcotest.(check bool) "digests differ" false (Bytes.equal da db)

(* --- encode scratch --------------------------------------------------------- *)

let test_encode_scratch_returns_fresh_bytes () =
  let e1 = { Core.Message.msg = mk ~phase:1 ~value:P.V1 (); justification = [] } in
  let e2 =
    {
      Core.Message.msg = mk ~sender:1 ~phase:2 ~value:P.V0 ();
      justification = [ mk ~phase:1 () ];
    }
  in
  let b1 = Core.Message.encode e1 in
  let copy = Bytes.copy b1 in
  let b2 = Core.Message.encode e2 in
  Alcotest.(check bool) "first encoding unchanged by the second" true
    (Bytes.equal b1 copy);
  Alcotest.(check bool) "encodings differ" false (Bytes.equal b1 b2);
  Alcotest.(check bool) "roundtrip" true (Core.Message.decode b1 = e1)

(* --- vset incremental tallies ----------------------------------------------- *)

let test_vset_tallies_match_naive_recount () =
  let rng = Util.Rng.create ~seed:21L in
  for _trial = 1 to 50 do
    let v = Core.Vset.create ~n:4 in
    for _ = 1 to 30 do
      let sender = Util.Rng.int rng 4 in
      let phase = 1 + Util.Rng.int rng 6 in
      let value =
        match Util.Rng.int rng 3 with 0 -> P.V0 | 1 -> P.V1 | _ -> P.Vbot
      in
      ignore (Core.Vset.add v (mk ~sender ~phase ~value ()))
    done;
    for phase = 1 to 6 do
      let msgs = Core.Vset.messages_at v ~phase in
      let senders =
        List.sort_uniq compare
          (List.map (fun (m : Core.Message.t) -> m.sender) msgs)
      in
      Alcotest.(check int) "count_phase" (List.length senders)
        (Core.Vset.count_phase v ~phase);
      List.iter
        (fun value ->
          let expected =
            List.length
              (List.filter
                 (fun s ->
                   List.exists
                     (fun (m : Core.Message.t) -> m.sender = s && m.value = value)
                     msgs)
                 senders)
          in
          Alcotest.(check int) "count_value" expected
            (Core.Vset.count_value v ~phase ~value))
        [ P.V0; P.V1; P.Vbot ]
    done
  done

(* --- key material cache ----------------------------------------------------- *)

let test_key_cache_shares_and_separates () =
  Harness.Runner.clear_key_cache ();
  let a = Harness.Runner.keyrings_for ~seed:123L ~n:2 ~phases:4 in
  let b = Harness.Runner.keyrings_for ~seed:123L ~n:2 ~phases:4 in
  Alcotest.(check bool) "same coordinates share one array" true (a == b);
  let c = Harness.Runner.keyrings_for ~seed:124L ~n:2 ~phases:4 in
  Alcotest.(check bool) "different seed, different material" true (c != a);
  Harness.Runner.clear_key_cache ()

let suite =
  ( "hotpath",
    [
      Alcotest.test_case "sweep memo-equivalent and parallel" `Quick
        test_sweep_memo_equivalent_and_parallel;
      Alcotest.test_case "memo on hits" `Quick test_memo_on_hits;
      Alcotest.test_case "profiler invisible to results" `Quick
        test_profiler_invisible_to_results;
      Alcotest.test_case "causal tracing invisible to results" `Quick
        test_causal_tracing_invisible_to_results;
      Alcotest.test_case "profiler span mechanics" `Quick test_profiler_span_mechanics;
      Alcotest.test_case "decode cache rejects forged prefix" `Quick
        test_decode_cache_rejects_forged_prefix;
      Alcotest.test_case "digest memo rejects forged proof" `Quick
        test_digest_memo_rejects_forged_proof;
      Alcotest.test_case "sha256 fast path" `Quick test_sha256_fast_path_matches_streaming;
      Alcotest.test_case "sha256 digest not aliased" `Quick test_sha256_digest_not_aliased;
      Alcotest.test_case "encode scratch fresh" `Quick test_encode_scratch_returns_fresh_bytes;
      Alcotest.test_case "vset tallies" `Quick test_vset_tallies_match_naive_recount;
      Alcotest.test_case "key cache" `Quick test_key_cache_shares_and_separates;
    ] )
