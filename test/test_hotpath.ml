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

(* The whole metric snapshot of a run, rendered and hashed: pins every
   series, label set, first-update creation ([incr_by c 0] included) and
   value at once. *)
let snapshot_digest snap = Crypto.Sha256.hex_digest_string (Obs.Metrics.render_table snap)

let test_memo_on_hits () =
  (* a broadcast reaches n-1 receivers: all but the first decode of a
     payload and all but the first hash of a proof must hit *)
  let r = run_failure_free () in
  Alcotest.(check bool) "decode hits" true
    (Obs.Metrics.counter_value r.metrics "codec.decode.memo_hit" > 0);
  Alcotest.(check bool) "digest hits" true
    (Obs.Metrics.counter_value r.metrics "crypto.verify.cache_hit" > 0)

(* Radio Turquois at n=64, failure-free and unanimous: the regime where
   justification bundles are large, most entries are duplicates and
   compact references engage, unlike the n <= 16 runs elsewhere in the
   suite. The receive path's counters and the latencies are pinned to
   values recorded before the broadcast fan-out shared decoded payloads,
   frame decodes and reference cells across receivers; the snapshot's
   engine.* rows were re-recorded when DCF contention was batched, and
   the codec.decode.memo_* rows when the store's decode memo shrank to
   the last payload decoded (hits 19662 -> 18676, misses 771 -> 1757;
   no other row moved). *)
let test_turquois_n64_pinned () =
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:64
      ~dist:Harness.Runner.Unanimous ~load:Net.Fault.Failure_free ~seed:7L ()
  in
  Alcotest.(check int) "all decided" 64 (List.length r.latencies);
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) name want (Obs.Metrics.counter_value r.metrics name))
    [
      ("validation.duplicates", 462171);
      ("validation.accepted", 10944);
      ("codec.decode.memo_hit", 18676);
      ("codec.decode.memo_miss", 1757);
      ("crypto.verify.cache_hit", 10769);
      ("crypto.verify.cache_miss", 175);
      ("compact.unresolved", 23);
      ("radio.delivered", 19000);
    ];
  Alcotest.(check string) "metric snapshot"
    "29a25332a568bd1ea2ca92d72344548a03ac1af9c81c570eaf0078e468a561bd"
    (snapshot_digest r.metrics);
  let latencies =
    String.concat ";"
      (List.map
         (fun (i, l) -> Printf.sprintf "%d:%Lx" i (Int64.bits_of_float l))
         r.latencies)
  in
  Alcotest.(check string) "latencies"
    "6d7fab9a483d801eed1ef039ccf46905ac4fcd29b76d10632bb6eeedf60dff0f"
    (Crypto.Sha256.hex_digest_string latencies)

(* Radio Sampled at n=64, failure-free and unanimous: unicast traffic
   from 64 contenders on one medium, so nearly all the work is MAC idle
   wake-ups, DIFS checks and backoff slots. The MAC and radio
   counters and the latencies are pinned to values recorded before
   same-time runs of events shared one heap entry and the radio fan-out
   stopped updating the registry per receiver. The engine peaks and the
   snapshot's engine.* rows were re-recorded when DCF contention was
   batched: one action runs a batch of carrier-sense checks. *)
let test_sampled_n64_pinned () =
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Sampled ~n:64
      ~dist:Harness.Runner.Unanimous ~load:Net.Fault.Failure_free ~seed:7L ()
  in
  Alcotest.(check int) "all decided" 64 (List.length r.latencies);
  List.iter
    (fun (name, labels, want) ->
      Alcotest.(check int)
        (name ^ Obs.Metrics.labels_to_string labels)
        want
        (Obs.Metrics.counter_value r.metrics ~labels name))
    [
      ("mac.difs_waits", [], 592091);
      ("mac.backoff_slots", [], 104143);
      ("mac.retries", [], 564);
      ("mac.tx", [ ("class", "bcast") ], 0);
      ("mac.tx", [ ("class", "ucast") ], 5893);
      ("mac.tx", [ ("class", "ack") ], 5606);
      ("radio.delivered", [], 688159);
      ("radio.omissions", [], 36278);
    ];
  Alcotest.(check int) "engine.live_peak" 96 r.events_live_peak;
  Alcotest.(check int) "engine.queued_peak" 96 r.events_queued_peak;
  Alcotest.(check string) "metric snapshot"
    "10fa6c33e98e5026606c6ef9f7e69bc23a579331fb1d69fe370659084c6cb6e2"
    (snapshot_digest r.metrics);
  let latencies =
    String.concat ";"
      (List.map
         (fun (i, l) -> Printf.sprintf "%d:%Lx" i (Int64.bits_of_float l))
         r.latencies)
  in
  Alcotest.(check string) "latencies"
    "67fb598059010888b40a0245c77902de80c242749f119c1f05f5d15e3a77357a"
    (Crypto.Sha256.hex_digest_string latencies)

(* Whole metric snapshots of runs that reach the series the n=64 pins
   miss: Byzantine Turquois (every [validation.rejected] rule,
   [radio.omission_by_rx], [mac.replaced]), the two baselines and the
   ordered log ([log.*]). Recorded before metric updates went through
   interned handles; the engine.* rows were re-recorded when DCF
   contention was batched, and the validation.rejected rows when a
   pending message stopped being re-validated against an unchanged V
   (turquois n=16 byzantine: phase 788 -> 148, value 10334 -> 2918;
   ordered log: phase 346 -> 100, status 425 -> 187). The
   codec.decode.memo_* rows were re-recorded, and no other row moved,
   when the store's decode memo shrank to the last payload decoded
   (turquois n=16 byzantine: hits 1209 -> 1112, misses 80 -> 177;
   ordered log: hits 787 -> 471, misses 286 -> 602). *)
let pinned_snapshot name want snap =
  Alcotest.(check string) (name ^ " metric snapshot") want (snapshot_digest snap)

let test_snapshots_pinned () =
  let runner protocol n load seed =
    (Harness.Runner.run ~protocol ~n ~dist:Harness.Runner.Unanimous ~load ~seed ()).metrics
  in
  let byz = runner Harness.Runner.Turquois 16 Net.Fault.Byzantine 3L in
  List.iter
    (fun (labels, want) ->
      Alcotest.(check int)
        ("validation.rejected" ^ Obs.Metrics.labels_to_string labels)
        want
        (Obs.Metrics.counter_value byz ~labels "validation.rejected"))
    [ ([ ("rule", "phase") ], 148); ([ ("rule", "value") ], 2918); ([ ("rule", "status") ], 1) ];
  Alcotest.(check int) "mac.replaced" 1 (Obs.Metrics.counter_value byz "mac.replaced");
  pinned_snapshot "turquois n=16 byzantine" "880d479c232024049217aed34bc43f70b2fd29ce90939a4c2c6c87bc02828291" byz;
  pinned_snapshot "bracha n=7 byzantine" "81d6e3769c0f716f35f95c412890fcd0a6970e77aef8102bd8561d424718b99b"
    (runner Harness.Runner.Bracha 7 Net.Fault.Byzantine 2L);
  pinned_snapshot "abba n=4" "9fda3b1ec19f537eb715b041a1e318e10121b8342feb5069a4981c7eb2d722c6" (runner Harness.Runner.Abba 4 Net.Fault.Failure_free 2L)

let test_ordered_log_snapshot_pinned () =
  let delivered, snap =
    Obs.Scope.with_run (fun () ->
        let n = 4 and capacity = 8 in
        let engine = Net.Engine.create () in
        let rng = Util.Rng.create ~seed:920L in
        let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
        Net.Radio.set_loss_prob radio 0.01;
        let cfg = { (Core.Proto.default_config ~n) with max_phases = 45 } in
        let keyrings =
          Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:(capacity * cfg.max_phases)
        in
        let logs =
          Array.init n (fun i ->
              let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
              Core.Ordered_log.create node cfg ~keyring:keyrings.(i) ~capacity ~window:2
                ~max_batch:4 ())
        in
        Array.iteri
          (fun i log ->
            for c = 0 to 2 + i do
              Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "cmd-%d-%d" i c))
            done)
          logs;
        Array.iter Core.Ordered_log.start logs;
        Net.Engine.run_while engine (fun () ->
            Net.Engine.now engine < 30.0
            && Array.exists (fun log -> Core.Ordered_log.delivered_count log < capacity) logs);
        Array.fold_left (fun acc log -> min acc (Core.Ordered_log.delivered_count log)) max_int logs)
  in
  Alcotest.(check int) "every slot delivered" 8 delivered;
  Alcotest.(check bool) "covers log.*" true
    (Obs.Metrics.counter_value snap "log.payload.certified" > 0);
  pinned_snapshot "ordered log n=4" "9a65531544d8fe5daa4d54c6bf2ba0452d3c61af5e76a1729fdf8dd514d468ec" snap

(* --- observer-only bookkeeping allocates nothing per event ------------------- *)

(* minor words per call of [f], after one warm-up call *)
let words_per_call f =
  let iters = 10_000 in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

(* A rejection carries its rule and counts as data; the text is built
   only on request, so rejecting allocates a few words, not a
   formatted string. *)
let test_rejection_allocation () =
  let cfg = P.default_config ~n:4 in
  let vset msgs =
    let v = Core.Vset.create ~n:4 in
    List.iter (fun m -> ignore (Core.Vset.add v m)) msgs;
    v
  in
  let at phase values = List.mapi (fun sender value -> mk ~sender ~phase ~value ()) values in
  let unanimous = at 1 [ P.V1; P.V1; P.V1 ] @ at 2 [ P.V1; P.V1; P.V1 ] @ at 3 [ P.V1; P.V1; P.V1 ] in
  List.iter
    (fun (rule, v, m) ->
      Alcotest.(check bool) (rule ^ " rejected") false (Core.Validation.is_valid cfg v m);
      let words = words_per_call (fun () -> ignore (Core.Validation.is_valid cfg v m)) in
      if words >= 16.0 then Alcotest.failf "%s rejection: %.1f words per call" rule words)
    [
      ("phase", vset [], mk ~phase:5 ());
      ("value", vset (at 1 [ P.V1; P.V1; P.V0 ]), mk ~phase:2 ~value:P.V0 ());
      ("status", vset unanimous, mk ~phase:4 ~value:P.V1 ~status:P.Undecided ());
    ]

(* After a series' first update of a run, an update through its handle
   is an array index: no name hash, no label sort, and no boxed
   increment for [incr_by]. *)
let test_handle_update_allocation () =
  let unlabeled = Obs.Metrics.counter "test.hotpath.unlabeled" in
  let labeled = Obs.Metrics.counter ~labels:[ ("class", "x"); ("rx", "p1") ] "test.hotpath.labeled" in
  let (), snap =
    Obs.Scope.with_run (fun () ->
        List.iter
          (fun (what, f) ->
            Alcotest.(check (float 0.0)) (what ^ ": words per update") 0.0
              (Float.round (words_per_call f)))
          [
            ("unlabeled", fun () -> Obs.Metrics.incr unlabeled);
            ("labeled", fun () -> Obs.Metrics.incr labeled);
            ("incr_by", fun () -> Obs.Metrics.incr_by unlabeled 3);
          ])
  in
  Alcotest.(check int) "every update counted" 10_001
    (Obs.Metrics.counter_value snap ~labels:[ ("rx", "p1"); ("class", "x") ] "test.hotpath.labeled");
  Alcotest.(check int) "every increment added" (10_001 + (3 * 10_001))
    (Obs.Metrics.counter_value snap "test.hotpath.unlabeled")

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

let keyrings = lazy (Core.Keyring.setup (Util.Rng.create ~seed:5L) ~n:2 ~phases:4)

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

(* --- mutated frames on the receive path ------------------------------------ *)

module D = Harness.Abstract_rounds.Driven

let walk_horizon = 6

let fresh_sim n =
  D.create ~n ~k:(P.default_config ~n).k ~dist:Harness.Runner.Divergent ~horizon:walk_horizon
    ~rng:(Util.Rng.create ~seed:(Int64.of_int n)) ()

(* The wire frames of Driven walks at n=4 and n=7, tagged with n. Each
   round, every machine's broadcast is emitted and encoded twice by a
   clone, so the walk itself stays in step: the first encode ships its
   bundle in full (format 0), the second names the entries the first
   shipped by digest (format 1). *)
let walk_frames =
  lazy
    (Array.of_list
       (List.concat_map
          (fun n ->
            let sim = fresh_sim n in
            List.concat
              (List.init walk_horizon (fun round ->
                   let frames =
                     List.concat
                       (List.init n (fun i ->
                            let c = Core.Machine.clone (D.machine sim i) in
                            match Core.Machine.emit c ~justify:true with
                            | Core.Machine.Broadcast env ->
                                let first = Core.Machine.encode_envelope c env in
                                [ (n, first); (n, Core.Machine.encode_envelope c env) ]
                            | Core.Machine.Per_receiver _ | Core.Machine.Quiet -> []))
                   in
                   (* one receiver misses each round's first sender, so
                      bundles keep growing past the fastest deciders *)
                   D.step sim ~drops:[ (round mod n, (round + 1) mod n) ] ~byz:[];
                   frames)))
          [ 4; 7 ]))

type mutation =
  | Intact
  | Flip of int * int  (** position, bit *)
  | Truncate of int  (** new length *)
  | Splice of int * int * int  (** prefix length, other frame, its suffix start *)
  | Oversize_proof of int  (** the proof length past the bytes left, by this much *)
  | Oversize_count of int  (** the entry count past the entries shipped, by this much *)

let describe_mutation = function
  | Intact -> "intact"
  | Flip (p, b) -> Printf.sprintf "flip %d.%d" p b
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Splice (k, j, s) -> Printf.sprintf "splice %d+%d@%d" k j s
  | Oversize_proof e -> Printf.sprintf "oversize proof +%d" e
  | Oversize_count e -> Printf.sprintf "oversize count +%d" e

(* Positions and frame choices are raw naturals reduced against the
   frame they land on, so the generator needs no corpus. *)
let gen_mutation =
  QCheck.Gen.(
    let* frame = nat in
    let* m =
      frequency
        [
          (1, return Intact);
          (4, map2 (fun p b -> Flip (p, b)) nat (int_bound 7));
          (2, map (fun k -> Truncate k) nat);
          (2, map3 (fun k j s -> Splice (k, j, s)) nat nat nat);
          (1, map (fun e -> Oversize_proof e) (oneof [ int_bound 3; int_bound 0xFFFFFF ]));
          (1, map (fun e -> Oversize_count e) (oneof [ int_bound 3; int_bound 0xFFFF ]));
        ]
    in
    return (frame, m))

(* Offset of the frame message's u32 proof length: format byte, u16
   sender, varint phase, value, origin and status bytes. *)
let proof_length_at b =
  let rec past_varint i =
    if Char.code (Bytes.get b i) land 0x80 = 0 then i + 1 else past_varint (i + 1)
  in
  past_varint 3 + 3

(* the walk frame a case starts from, and its mutant *)
let mutate frames (frame, m) =
  let n, base = frames.(frame mod Array.length frames) in
  let len = Bytes.length base in
  let b = Bytes.copy base in
  let bytes =
    match m with
    | Intact -> b
    | Flip (p, bit) ->
        let p = p mod len in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
        b
    | Truncate k -> Bytes.sub b 0 (k mod len)
    | Splice (k, j, s) ->
        let _, o = frames.(j mod Array.length frames) in
        let s = s mod (Bytes.length o + 1) in
        Bytes.cat (Bytes.sub b 0 (k mod (len + 1))) (Bytes.sub o s (Bytes.length o - s))
    | Oversize_proof e ->
        let pos = proof_length_at b in
        Bytes.set_int32_le b pos (Int32.of_int (min 0xFFFFFFFF (len - pos - 4 + 1 + e)));
        b
    | Oversize_count e ->
        let pos = proof_length_at b in
        let pos = pos + 4 + Int32.to_int (Bytes.get_int32_le b pos) in
        Bytes.set_uint16_le b pos (min 0xFFFF (Bytes.get_uint16_le b pos + 1 + e));
        b
  in
  (n, base, bytes)

(* A frame as receivers see it, independent of any store's indices. *)
let project store (fr : S.frame) =
  {
    Core.Message.wmsg = S.get store fr.S.msg;
    wjust =
      Array.to_list
        (Array.map
           (function
             | S.Stored i -> Core.Message.Full (S.get store i)
             | S.Unknown c -> Core.Message.Ref (S.candidates_digest c))
           fr.S.just);
  }

let codec_outcome f =
  match f () with
  | v -> Ok v
  | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> Error ()

(* Hostile bytes through the real receive path: walk frames, bit-flipped,
   truncated, spliced onto one another or given a length prefix past
   their end. One store decodes the whole stream, each mutant right
   after the walk frame it came from, as a receiver would meet a forgery
   after the frame it imitates. [Msgstore.decode] raises only the
   codec's two rejections, agrees with a fresh store's decode of the
   same bytes, returns the very frame when called on them again, and
   [Machine.handle_wire] on a fresh machine raises nothing. *)
let qcheck_mutated_frames =
  let store = lazy (S.create ()) in
  QCheck.Test.make ~name:"mutated frames on the receive path" ~count:1000
    (QCheck.make
       ~print:(fun (f, m) -> Printf.sprintf "frame %d, %s" f (describe_mutation m))
       gen_mutation)
    (fun case ->
      let frames = Lazy.force walk_frames in
      let store = Lazy.force store in
      let n, base, bytes = mutate frames case in
      ignore (S.decode store base);
      let fresh = S.create () in
      let ours = codec_outcome (fun () -> S.decode store bytes) in
      match (ours, codec_outcome (fun () -> S.decode fresh bytes)) with
      | Error (), Error () -> true
      | Ok fr, Ok fresh_fr ->
          if project store fr <> project fresh fresh_fr then
            QCheck.Test.fail_report "the stream's store and a fresh store disagree";
          if S.decode store bytes != fr then
            QCheck.Test.fail_report "the same bytes twice in a row gave two frames";
          ignore
            (Obs.Scope.with_run (fun () ->
                 let m = D.machine (fresh_sim n) (fst case mod n) in
                 Core.Machine.handle_wire m (S.decode (Core.Machine.store m) bytes)));
          true
      | Ok _, Error () | Error (), Ok _ ->
          QCheck.Test.fail_report "the stream's store and a fresh store disagree on rejection")

(* the walk corpus carries both wire formats, compact references included *)
let test_walk_frames_cover_both_formats () =
  let frames = Lazy.force walk_frames in
  let format b = Char.code (Bytes.get b 0) in
  let has_ref b =
    List.exists
      (function Core.Message.Ref _ -> true | Core.Message.Full _ -> false)
      (Core.Message.decode_wire b).Core.Message.wjust
  in
  List.iter
    (fun n ->
      let of_n =
        List.filter_map (fun (m, b) -> if m = n then Some b else None) (Array.to_list frames)
      in
      Alcotest.(check bool) (Printf.sprintf "format 0 at n=%d" n) true
        (List.exists (fun b -> format b = 0) of_n);
      Alcotest.(check bool) (Printf.sprintf "format 1 with references at n=%d" n) true
        (List.exists (fun b -> format b = 1 && has_ref b) of_n))
    [ 4; 7 ]

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
      Alcotest.test_case "turquois n=64 pinned" `Quick test_turquois_n64_pinned;
      Alcotest.test_case "sampled n=64 pinned" `Quick test_sampled_n64_pinned;
      Alcotest.test_case "metric snapshots pinned" `Quick test_snapshots_pinned;
      Alcotest.test_case "ordered log snapshot pinned" `Quick test_ordered_log_snapshot_pinned;
      Alcotest.test_case "rejection allocation" `Quick test_rejection_allocation;
      Alcotest.test_case "handle update allocation" `Quick test_handle_update_allocation;
      Alcotest.test_case "profiler invisible to results" `Quick
        test_profiler_invisible_to_results;
      Alcotest.test_case "causal tracing invisible to results" `Quick
        test_causal_tracing_invisible_to_results;
      Alcotest.test_case "profiler span mechanics" `Quick test_profiler_span_mechanics;
      Alcotest.test_case "decode cache rejects forged prefix" `Quick
        test_decode_cache_rejects_forged_prefix;
      Alcotest.test_case "digest memo rejects forged proof" `Quick
        test_digest_memo_rejects_forged_proof;
      Alcotest.test_case "walk frames cover both formats" `Quick
        test_walk_frames_cover_both_formats;
      QCheck_alcotest.to_alcotest qcheck_mutated_frames;
      Alcotest.test_case "sha256 fast path" `Quick test_sha256_fast_path_matches_streaming;
      Alcotest.test_case "sha256 digest not aliased" `Quick test_sha256_digest_not_aliased;
      Alcotest.test_case "encode scratch fresh" `Quick test_encode_scratch_returns_fresh_bytes;
      Alcotest.test_case "vset tallies" `Quick test_vset_tallies_match_naive_recount;
      Alcotest.test_case "key cache" `Quick test_key_cache_shares_and_separates;
    ] )
