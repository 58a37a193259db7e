(* Unit tests for the core protocol building blocks: Proto, Message,
   Keyring, Vset. *)

module P = Core.Proto

(* --- Proto -------------------------------------------------------------- *)

let test_value_encoding () =
  List.iter
    (fun v -> Alcotest.(check bool) "roundtrip" true
        (P.value_equal v (P.value_of_int (P.value_to_int v))))
    [ P.V0; P.V1; P.Vbot ];
  Alcotest.check_raises "bad int" (Util.Codec.Malformed "invalid value 3") (fun () ->
      ignore (P.value_of_int 3))

let test_value_of_bit () =
  Alcotest.(check bool) "0" true (P.value_equal P.V0 (P.value_of_bit 0));
  Alcotest.(check bool) "1" true (P.value_equal P.V1 (P.value_of_bit 1));
  Alcotest.(check (option int)) "bit of bot" None (P.bit_of_value P.Vbot);
  Alcotest.check_raises "bad bit" (Invalid_argument "Proto.value_of_bit: 2") (fun () ->
      ignore (P.value_of_bit 2))

let test_phase_kinds () =
  let kind_name = function P.Converge -> "c" | P.Lock -> "l" | P.Decide -> "d" in
  Alcotest.(check (list string)) "cycle" [ "c"; "l"; "d"; "c"; "l"; "d" ]
    (List.map (fun p -> kind_name (P.kind_of_phase p)) [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.check_raises "phase 0" (Invalid_argument "Proto.kind_of_phase: phases start at 1")
    (fun () -> ignore (P.kind_of_phase 0))

let test_default_config () =
  let c = P.default_config ~n:16 in
  Alcotest.(check int) "f" 5 c.f;
  Alcotest.(check int) "k" 11 c.k;
  P.validate_config c

let test_validate_config_rejects () =
  let base = P.default_config ~n:4 in
  Alcotest.check_raises "n <= 3f" (Invalid_argument "Proto.validate_config: need n > 3f")
    (fun () -> P.validate_config { base with f = 2 });
  Alcotest.check_raises "bad k"
    (Invalid_argument "Proto.validate_config: need (n+f)/2 < k <= n-f") (fun () ->
      P.validate_config { base with k = 4 })

let test_quorum_thresholds () =
  (* n=4 f=1: quorum needs > 2.5 i.e. >= 3; half needs > 1.25 i.e. >= 2 *)
  let c = P.default_config ~n:4 in
  Alcotest.(check bool) "2 no" false (P.quorum_exceeded c 2);
  Alcotest.(check bool) "3 yes" true (P.quorum_exceeded c 3);
  Alcotest.(check bool) "half 1 no" false (P.half_quorum_exceeded c 1);
  Alcotest.(check bool) "half 2 yes" true (P.half_quorum_exceeded c 2);
  (* n=16 f=5: quorum > 10.5 i.e. >= 11; half > 5.25 i.e. >= 6 *)
  let c = P.default_config ~n:16 in
  Alcotest.(check bool) "10 no" false (P.quorum_exceeded c 10);
  Alcotest.(check bool) "11 yes" true (P.quorum_exceeded c 11);
  Alcotest.(check bool) "half 5 no" false (P.half_quorum_exceeded c 5);
  Alcotest.(check bool) "half 6 yes" true (P.half_quorum_exceeded c 6)

let test_sigma_formula () =
  (* sigma = ceil((n-t)/2) * (n-k-t) + k - 2 *)
  let sigma ~n ~k ~t = P.sigma { (P.default_config ~n) with k } ~t in
  Alcotest.(check int) "n=4 k=3 t=0" ((2 * 1) + 1) (sigma ~n:4 ~k:3 ~t:0);
  Alcotest.(check int) "n=10 k=7 t=0" ((5 * 3) + 5) (sigma ~n:10 ~k:7 ~t:0);
  Alcotest.(check int) "n=10 k=7 t=3" ((4 * 0) + 5) (sigma ~n:10 ~k:7 ~t:3);
  Alcotest.check_raises "t > f" (Invalid_argument "Proto.sigma: need 0 <= t <= f") (fun () ->
      ignore (sigma ~n:4 ~k:3 ~t:2))

(* --- Message ----------------------------------------------------------- *)

let mk_msg ?(sender = 1) ?(phase = 4) ?(value = P.V1) ?(origin = P.Deterministic)
    ?(status = P.Undecided) ?(proof = Bytes.make 32 '\x11') () =
  { Core.Message.sender; phase; value; origin; status; proof }

let msg_testable =
  Alcotest.testable
    (fun fmt m -> Format.pp_print_string fmt (Core.Message.describe m))
    (fun a b -> Core.Message.header_equal a b && Bytes.equal a.proof b.proof)

let test_message_roundtrip () =
  let msg = mk_msg () in
  let envelope = { Core.Message.msg; justification = [ mk_msg ~sender:2 ~phase:3 (); mk_msg ~sender:3 ~phase:3 ~value:P.Vbot () ] } in
  let back = Core.Message.decode (Core.Message.encode envelope) in
  Alcotest.(check msg_testable) "main" msg back.msg;
  Alcotest.(check (list msg_testable)) "justification" envelope.justification back.justification

let test_message_empty_justification () =
  let envelope = { Core.Message.msg = mk_msg (); justification = [] } in
  let back = Core.Message.decode (Core.Message.encode envelope) in
  Alcotest.(check int) "no justification" 0 (List.length back.justification)

let test_message_size_grows_with_justification () =
  let small = { Core.Message.msg = mk_msg (); justification = [] } in
  let big =
    { Core.Message.msg = mk_msg (); justification = List.init 10 (fun i -> mk_msg ~sender:i ()) }
  in
  Alcotest.(check bool) "bigger" true
    (Core.Message.encoded_size big > Core.Message.encoded_size small + 300)

let test_message_rejects_garbage () =
  Alcotest.check_raises "empty buffer" Util.Codec.Truncated (fun () ->
      ignore (Core.Message.decode Bytes.empty));
  (* phase 0 *)
  let w = Util.Codec.W.create () in
  Util.Codec.W.u16 w 1;
  Util.Codec.W.varint w 0;
  Util.Codec.W.u8 w 0;
  Util.Codec.W.u8 w 0;
  Util.Codec.W.u8 w 0;
  Util.Codec.W.bytes_lp w (Bytes.make 32 'x');
  Util.Codec.W.u16 w 0;
  Alcotest.check_raises "phase 0" (Util.Codec.Malformed "message phase < 1") (fun () ->
      ignore (Core.Message.decode (Util.Codec.W.contents w)))

let test_message_slots () =
  let slot = Core.Message.slot_of in
  Alcotest.(check bool) "bot" true (slot ~value:P.Vbot ~origin:P.Deterministic = Crypto.Onetime_sig.S_bot);
  Alcotest.(check bool) "bot rand" true (slot ~value:P.Vbot ~origin:P.Random = Crypto.Onetime_sig.S_bot);
  Alcotest.(check bool) "v0 det" true (slot ~value:P.V0 ~origin:P.Deterministic = Crypto.Onetime_sig.S_zero);
  Alcotest.(check bool) "v1 rand" true (slot ~value:P.V1 ~origin:P.Random = Crypto.Onetime_sig.S_rand_one)

let qcheck_message_roundtrip =
  let gen =
    QCheck.Gen.(
      let* sender = int_range 0 65535 in
      let* phase = int_range 1 10000 in
      let* value = oneofl [ P.V0; P.V1; P.Vbot ] in
      let* origin = oneofl [ P.Deterministic; P.Random ] in
      let* status = oneofl [ P.Undecided; P.Decided ] in
      let* proof_len = int_range 0 64 in
      let* proof_seed = int_range 0 255 in
      return (mk_msg ~sender ~phase ~value ~origin ~status
                ~proof:(Bytes.make proof_len (Char.chr proof_seed)) ()))
  in
  QCheck.Test.make ~name:"message wire roundtrip" ~count:300
    (QCheck.make ~print:Core.Message.describe gen) (fun msg ->
      let back = Core.Message.msg_of_bytes (Core.Message.msg_to_bytes msg) in
      Core.Message.header_equal msg back && Bytes.equal msg.proof back.proof)

(* --- wire formats (plain vs compact) ------------------------------------- *)

let test_wire_plain_is_encode () =
  (* an all-Full wire frame is the plain envelope codec, byte for byte *)
  let msg = mk_msg () in
  let just = [ mk_msg ~sender:2 ~phase:3 (); mk_msg ~sender:3 ~phase:3 ~value:P.Vbot () ] in
  let wire =
    { Core.Message.wmsg = msg; wjust = List.map (fun m -> Core.Message.Full m) just }
  in
  let b = Core.Message.encode_wire wire in
  Alcotest.(check int) "format byte 0" 0 (Char.code (Bytes.get b 0));
  Alcotest.(check bytes) "same bytes as encode"
    (Core.Message.encode { Core.Message.msg; justification = just }) b;
  let back = Core.Message.decode_wire b in
  Alcotest.(check (list msg_testable)) "entries survive" just
    (List.map
       (function Core.Message.Full m -> m | Core.Message.Ref _ -> Alcotest.fail "ref")
       back.wjust)

let test_wire_compact_roundtrip () =
  let full = mk_msg ~sender:2 ~phase:3 () in
  let d = Core.Message.msg_digest (mk_msg ~sender:3 ~phase:3 ()) in
  let wire =
    { Core.Message.wmsg = mk_msg (); wjust = [ Core.Message.Full full; Core.Message.Ref d ] }
  in
  let b = Core.Message.encode_wire wire in
  Alcotest.(check int) "format byte 1" 1 (Char.code (Bytes.get b 0));
  (match (Core.Message.decode_wire b).wjust with
  | [ Core.Message.Full m; Core.Message.Ref d' ] ->
      Alcotest.(check msg_testable) "full entry" full m;
      Alcotest.(check bytes) "ref digest" d d'
  | _ -> Alcotest.fail "expected [Full; Ref]");
  (* the plain decoder must refuse a frame it cannot resolve *)
  Alcotest.check_raises "decode refuses refs"
    (Util.Codec.Malformed "unresolved compact reference") (fun () ->
      ignore (Core.Message.decode b))

let test_wire_rejects_bad_tags () =
  let msg = mk_msg () in
  let wire =
    { Core.Message.wmsg = msg;
      wjust = [ Core.Message.Ref (Core.Message.msg_digest (mk_msg ~sender:2 ())) ] }
  in
  let b = Core.Message.encode_wire wire in
  let bad_format = Bytes.copy b in
  Bytes.set bad_format 0 '\x07';
  Alcotest.check_raises "unknown format" (Util.Codec.Malformed "unknown frame format 7")
    (fun () -> ignore (Core.Message.decode_wire bad_format));
  (* the entry tag sits after the format byte, the message and the count *)
  let tag_pos = 1 + Bytes.length (Core.Message.msg_to_bytes msg) + 2 in
  let bad_tag = Bytes.copy b in
  Bytes.set bad_tag tag_pos '\x05';
  Alcotest.check_raises "unknown entry tag" (Util.Codec.Malformed "unknown entry tag 5")
    (fun () -> ignore (Core.Message.decode_wire bad_tag));
  Alcotest.check_raises "truncated ref" Util.Codec.Truncated (fun () ->
      ignore (Core.Message.decode_wire (Bytes.sub b 0 (Bytes.length b - 1))))

let test_msg_digest_covers_proof () =
  let a = mk_msg () in
  let b = mk_msg ~proof:(Bytes.make 32 '\x22') () in
  Alcotest.(check int) "width" Core.Message.digest_bytes
    (Bytes.length (Core.Message.msg_digest a));
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal (Core.Message.msg_digest a) (Core.Message.msg_digest (mk_msg ())));
  Alcotest.(check bool) "proof is covered" false
    (Bytes.equal (Core.Message.msg_digest a) (Core.Message.msg_digest b))

(* --- Keyring ------------------------------------------------------------- *)

let keyrings = lazy (Core.Keyring.setup (Util.Rng.create ~seed:200L) ~n:4 ~phases:12)

let test_keyring_setup () =
  let krs = Lazy.force keyrings in
  Alcotest.(check int) "count" 4 (Array.length krs);
  Array.iteri (fun i kr -> Alcotest.(check int) "owner" i (Core.Keyring.owner kr)) krs;
  Alcotest.(check int) "phases" 12 (Core.Keyring.phases krs.(0))

let test_keyring_cross_check () =
  let krs = Lazy.force keyrings in
  let proof = Core.Keyring.sign krs.(1) ~phase:5 ~value:P.V1 ~origin:P.Random in
  (* every other process accepts it for exactly that tuple *)
  Array.iter
    (fun kr ->
      Alcotest.(check bool) "accepts" true
        (Core.Keyring.check kr ~signer:1 ~phase:5 ~value:P.V1 ~origin:P.Random ~proof);
      Alcotest.(check bool) "wrong value" false
        (Core.Keyring.check kr ~signer:1 ~phase:5 ~value:P.V0 ~origin:P.Random ~proof);
      Alcotest.(check bool) "wrong origin" false
        (Core.Keyring.check kr ~signer:1 ~phase:5 ~value:P.V1 ~origin:P.Deterministic ~proof);
      Alcotest.(check bool) "wrong signer" false
        (Core.Keyring.check kr ~signer:2 ~phase:5 ~value:P.V1 ~origin:P.Random ~proof);
      Alcotest.(check bool) "wrong phase" false
        (Core.Keyring.check kr ~signer:1 ~phase:6 ~value:P.V1 ~origin:P.Random ~proof))
    krs

let test_keyring_check_message () =
  let krs = Lazy.force keyrings in
  let proof = Core.Keyring.sign krs.(2) ~phase:3 ~value:P.Vbot ~origin:P.Deterministic in
  let msg = mk_msg ~sender:2 ~phase:3 ~value:P.Vbot ~proof () in
  Alcotest.(check bool) "valid" true (Core.Keyring.check_message krs.(0) msg);
  let forged = { msg with sender = 3 } in
  Alcotest.(check bool) "forged" false (Core.Keyring.check_message krs.(0) forged)

let test_keyring_out_of_range () =
  let krs = Lazy.force keyrings in
  Alcotest.(check bool) "unknown signer" false
    (Core.Keyring.check krs.(0) ~signer:9 ~phase:1 ~value:P.V0 ~origin:P.Deterministic
       ~proof:(Bytes.make 32 'a'))

(* --- Vset ------------------------------------------------------------------ *)

let test_vset_add_dedup () =
  let v = Core.Vset.create ~n:4 in
  Alcotest.(check bool) "first" true (Core.Vset.add v (mk_msg ~sender:0 ~phase:1 ()));
  Alcotest.(check bool) "same value dup" false
    (Core.Vset.add v (mk_msg ~sender:0 ~phase:1 ~value:P.V1 ()));
  (* a differently-valued copy from the same (sender, phase) is an
     equivocation: retained as an extra, counted for its value too *)
  Alcotest.(check bool) "equivocated copy" true
    (Core.Vset.add v (mk_msg ~sender:0 ~phase:1 ~value:P.V0 ()));
  Alcotest.(check bool) "equivocated dup" false
    (Core.Vset.add v (mk_msg ~sender:0 ~phase:1 ~value:P.V0 ()));
  Alcotest.(check int) "still one distinct sender" 1 (Core.Vset.count_phase v ~phase:1);
  Alcotest.(check int) "supports V0" 1 (Core.Vset.count_value v ~phase:1 ~value:P.V0);
  Alcotest.(check int) "supports V1" 1 (Core.Vset.count_value v ~phase:1 ~value:P.V1);
  Alcotest.(check bool) "other phase" true (Core.Vset.add v (mk_msg ~sender:0 ~phase:2 ()));
  Alcotest.(check bool) "out of range" false (Core.Vset.add v (mk_msg ~sender:7 ~phase:1 ()));
  Alcotest.(check int) "size" 3 (Core.Vset.size v)

let test_vset_counts () =
  let v = Core.Vset.create ~n:5 in
  ignore (Core.Vset.add v (mk_msg ~sender:0 ~phase:2 ~value:P.V0 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:1 ~phase:2 ~value:P.V1 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:2 ~phase:2 ~value:P.V1 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:3 ~phase:3 ~value:P.Vbot ()));
  Alcotest.(check int) "phase 2" 3 (Core.Vset.count_phase v ~phase:2);
  Alcotest.(check int) "phase 3" 1 (Core.Vset.count_phase v ~phase:3);
  Alcotest.(check int) "phase 9" 0 (Core.Vset.count_phase v ~phase:9);
  Alcotest.(check int) "v1 at 2" 2 (Core.Vset.count_value v ~phase:2 ~value:P.V1);
  Alcotest.(check int) "bot at 3" 1 (Core.Vset.count_value v ~phase:3 ~value:P.Vbot)

let test_vset_majority () =
  let v = Core.Vset.create ~n:5 in
  ignore (Core.Vset.add v (mk_msg ~sender:0 ~phase:1 ~value:P.V0 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:1 ~phase:1 ~value:P.V0 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:2 ~phase:1 ~value:P.V1 ()));
  Alcotest.(check bool) "majority 0" true
    (P.value_equal P.V0 (Core.Vset.majority_value v ~phase:1));
  ignore (Core.Vset.add v (mk_msg ~sender:3 ~phase:1 ~value:P.V1 ()));
  (* tie favors V1 *)
  Alcotest.(check bool) "tie -> 1" true
    (P.value_equal P.V1 (Core.Vset.majority_value v ~phase:1));
  Alcotest.check_raises "no binary values"
    (Invalid_argument "Vset.majority_value: no binary values at phase") (fun () ->
      ignore (Core.Vset.majority_value v ~phase:9))

let test_vset_highest () =
  let v = Core.Vset.create ~n:4 in
  Alcotest.(check int) "empty" 0 (Core.Vset.max_phase v);
  ignore (Core.Vset.add v (mk_msg ~sender:0 ~phase:3 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:1 ~phase:7 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:2 ~phase:5 ()));
  Alcotest.(check int) "max" 7 (Core.Vset.max_phase v);
  match Core.Vset.highest_message v with
  | Some m -> Alcotest.(check int) "highest sender" 1 m.sender
  | None -> Alcotest.fail "expected highest"

let test_vset_some_binary () =
  let v = Core.Vset.create ~n:4 in
  ignore (Core.Vset.add v (mk_msg ~sender:0 ~phase:3 ~value:P.Vbot ()));
  Alcotest.(check bool) "only bot" true (Core.Vset.some_binary_value v ~phase:3 = None);
  ignore (Core.Vset.add v (mk_msg ~sender:1 ~phase:3 ~value:P.V0 ()));
  Alcotest.(check bool) "finds v0" true
    (match Core.Vset.some_binary_value v ~phase:3 with
    | Some b -> P.value_equal b P.V0
    | None -> false)

let test_vset_messages_at_sorted () =
  let v = Core.Vset.create ~n:4 in
  ignore (Core.Vset.add v (mk_msg ~sender:2 ~phase:1 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:0 ~phase:1 ()));
  ignore (Core.Vset.add v (mk_msg ~sender:3 ~phase:1 ()));
  Alcotest.(check (list int)) "ascending senders" [ 0; 2; 3 ]
    (List.map (fun (m : Core.Message.t) -> m.sender) (Core.Vset.messages_at v ~phase:1))

(* A list-based executable model of the documented Vset semantics: the
   flat arena-backed implementation must be observation-equivalent to
   it on any message stream. The model keeps plain insertion order and
   recomputes every query by scanning — obviously correct, hopelessly
   slow, which is exactly what a reference should be. *)
module Ref_vset = struct
  type t = { n : int; mutable msgs : Core.Message.t list (* insertion order *) }

  let create ~n = { n; msgs = [] }

  let add t (m : Core.Message.t) =
    if
      m.sender < 0 || m.sender >= t.n
      || List.exists
           (fun (s : Core.Message.t) ->
             s.sender = m.sender && s.phase = m.phase && P.value_equal s.value m.value)
           t.msgs
    then false
    else begin
      t.msgs <- t.msgs @ [ m ];
      true
    end

  (* the primary is the first stored copy; equivocated extras surface
     newest-first after it (they are consed onto the slot) *)
  let copies t ~sender ~phase =
    match
      List.filter (fun (s : Core.Message.t) -> s.sender = sender && s.phase = phase) t.msgs
    with
    | [] -> []
    | primary :: extras -> primary :: List.rev extras

  let find t ~sender ~phase =
    match copies t ~sender ~phase with [] -> None | m :: _ -> Some m

  let distinct_senders t pred =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (s : Core.Message.t) -> if pred s then Some s.sender else None)
         t.msgs)

  let count_phase t ~phase =
    List.length (distinct_senders t (fun s -> s.phase = phase))

  let count_value t ~phase ~value =
    List.length
      (distinct_senders t (fun s -> s.phase = phase && P.value_equal s.value value))

  let messages_at t ~phase =
    List.concat_map
      (fun sender -> copies t ~sender ~phase)
      (List.init t.n (fun s -> s))

  let max_phase t =
    List.fold_left (fun acc (s : Core.Message.t) -> max acc s.phase) 0 t.msgs

  let size t = List.length t.msgs
end

let test_vset_matches_reference_model () =
  let rng = Util.Rng.create ~seed:0xC0FFEEL in
  List.iter
    (fun n ->
      let v = Core.Vset.create ~n in
      let r = Ref_vset.create ~n in
      for step = 1 to 400 do
        let sender = Util.Rng.int rng (n + 2) - 1 (* includes out-of-range *) in
        let phase = 1 + Util.Rng.int rng 6 in
        let value =
          match Util.Rng.int rng 3 with 0 -> P.V0 | 1 -> P.V1 | _ -> P.Vbot
        in
        let origin = if Util.Rng.bool rng then P.Deterministic else P.Random in
        let status = if Util.Rng.bool rng then P.Undecided else P.Decided in
        let m = mk_msg ~sender ~phase ~value ~origin ~status ~proof:(Util.Rng.bytes rng 32) () in
        if Core.Vset.add v m <> Ref_vset.add r m then
          Alcotest.failf "step %d: add disagrees with the model on %s" step
            (Core.Message.describe m)
      done;
      Alcotest.(check int) "size" (Ref_vset.size r) (Core.Vset.size v);
      Alcotest.(check int) "max phase" (Ref_vset.max_phase r) (Core.Vset.max_phase v);
      (match Core.Vset.highest_message v with
      | Some m -> Alcotest.(check int) "highest at max phase" (Ref_vset.max_phase r) m.phase
      | None -> Alcotest.(check int) "empty iff model empty" 0 (Ref_vset.size r));
      for phase = 1 to 7 do
        Alcotest.(check int)
          (Printf.sprintf "count_phase %d" phase)
          (Ref_vset.count_phase r ~phase)
          (Core.Vset.count_phase v ~phase);
        List.iter
          (fun value ->
            Alcotest.(check int)
              (Printf.sprintf "count_value %d/%d" phase (P.value_to_int value))
              (Ref_vset.count_value r ~phase ~value)
              (Core.Vset.count_value v ~phase ~value))
          [ P.V0; P.V1; P.Vbot ];
        Alcotest.(check (list msg_testable))
          (Printf.sprintf "messages_at %d" phase)
          (Ref_vset.messages_at r ~phase)
          (Core.Vset.messages_at v ~phase);
        (* some_binary_value: free choice of witness, but only a valid one *)
        (match Core.Vset.some_binary_value v ~phase with
        | Some b ->
            Alcotest.(check bool) "witness present" true
              (Ref_vset.count_value r ~phase ~value:b > 0)
        | None ->
            Alcotest.(check int) "no binary in model" 0
              (Ref_vset.count_value r ~phase ~value:P.V0
              + Ref_vset.count_value r ~phase ~value:P.V1));
        (* majority among {0,1} by distinct supporters, ties to V1 *)
        let c0 = Ref_vset.count_value r ~phase ~value:P.V0 in
        let c1 = Ref_vset.count_value r ~phase ~value:P.V1 in
        if c0 + c1 > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "majority %d" phase)
            true
            (P.value_equal
               (Core.Vset.majority_value v ~phase)
               (if c0 > c1 then P.V0 else P.V1));
        for sender = -1 to n do
          Alcotest.(check bool) "mem" (Ref_vset.find r ~sender ~phase <> None)
            (Core.Vset.mem v ~sender ~phase);
          Alcotest.(check (option msg_testable)) "find (primary = first stored)"
            (Ref_vset.find r ~sender ~phase)
            (Core.Vset.find v ~sender ~phase);
          Alcotest.(check (list msg_testable)) "copies in stored order"
            (Ref_vset.copies r ~sender ~phase)
            (Core.Vset.copies v ~sender ~phase)
        done
      done;
      (* mem_copy is exact-header membership, proof excluded *)
      List.iter
        (fun (m : Core.Message.t) ->
          Alcotest.(check bool) "mem_copy stored" true
            (Core.Vset.mem_copy v { m with proof = Bytes.make 32 '\xEE' }))
        r.Ref_vset.msgs;
      (* clone independence and canonical stability *)
      let c = Core.Vset.clone v in
      let render s =
        let b = Buffer.create 256 in
        Core.Vset.canonical s b;
        Buffer.contents b
      in
      Alcotest.(check string) "clone canonical" (render v) (render c);
      ignore (Core.Vset.add c (mk_msg ~sender:0 ~phase:9 ()));
      Alcotest.(check int) "original size untouched" (Ref_vset.size r) (Core.Vset.size v);
      Alcotest.(check bool) "canonicals diverge after clone add" false
        (String.equal (render v) (render c)))
    [ 4; 7; 10 ]

(* A list-based model of the message store: messages in first-seen
   order, a message's index its 1-based position, every query a scan. The
   store must be observation-equivalent to it on adversarial streams of
   valid, forged and out-of-range messages, mutated payloads, and
   references to known and unknown digests. *)
module Ref_store = struct
  type t = { mutable msgs : Core.Message.t list; mutable members : int list }

  let same (a : Core.Message.t) (b : Core.Message.t) =
    Core.Message.header_equal a b && Bytes.equal a.proof b.proof

  let index t m =
    let rec go i = function
      | [] -> None
      | x :: rest -> if same x m then Some i else go (i + 1) rest
    in
    go 1 t.msgs

  let intern t m =
    match index t m with
    | Some i -> i
    | None ->
        t.msgs <- t.msgs @ [ m ];
        List.length t.msgs

  let get t i = List.nth t.msgs (i - 1)

  let admit t m =
    let i = intern t m in
    if not (List.mem i t.members) then t.members <- i :: t.members;
    i

  (* a decoded frame as the model sees it: a compact reference is the
     digest it names *)
  type entry = Stored of int | Ref of bytes
  type frame = { msg : int; just : entry list }

  (* justification entries first, in wire order, then the message *)
  let decode t payload =
    let wi = Core.Message.decode_wire payload in
    let just =
      List.map
        (function
          | Core.Message.Full m -> Stored (intern t m)
          | Core.Message.Ref d -> Ref d)
        wi.Core.Message.wjust
    in
    { msg = intern t wi.Core.Message.wmsg; just }

  (* the store's frame seen through the model's eyes: a candidate cell
     projects to the digest it collects *)
  let project (fr : Core.Msgstore.frame) =
    {
      msg = fr.Core.Msgstore.msg;
      just =
        List.map
          (function
            | Core.Msgstore.Stored i -> Stored i
            | Core.Msgstore.Unknown c -> Ref (Core.Msgstore.candidates_digest c))
          (Array.to_list fr.Core.Msgstore.just);
    }

  (* 0 when no known message has the digest *)
  let resolve t known d =
    let rec go i = function
      | [] -> 0
      | m :: rest ->
          if known i && Bytes.equal (Core.Message.msg_digest m) d then i
          else go (i + 1) rest
    in
    go 1 t.msgs
end

(* every compact reference of a decoded frame, resolved by the store
   through its candidate cell and by the model through the digest *)
let check_resolutions r (fr : Core.Msgstore.frame) known =
  Array.iter
    (function
      | Core.Msgstore.Stored _ -> ()
      | Core.Msgstore.Unknown c ->
          Alcotest.(check int) "resolve"
            (Ref_store.resolve r known (Core.Msgstore.candidates_digest c))
            (Core.Msgstore.resolve (fun () i -> known i) () c))
    fr.Core.Msgstore.just

let test_msgstore_matches_reference_model () =
  let rng = Util.Rng.create ~seed:0x5703EL in
  List.iter
    (fun n ->
      let phases = 4 in
      let krs = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases in
      let s = Core.Msgstore.create () in
      let r = { Ref_store.msgs = []; members = [] } in
      let pool = ref [] in
      let pick l = List.nth l (Util.Rng.int rng (List.length l)) in
      (* valid, forged-proof, random-proof and out-of-range messages *)
      let fresh () =
        let sender = Util.Rng.int rng (n + 1) in
        let phase = 1 + Util.Rng.int rng phases in
        let value = pick [ P.V0; P.V1; P.Vbot ] in
        let origin = pick [ P.Deterministic; P.Random ] in
        let status = pick [ P.Undecided; P.Decided ] in
        let proof =
          let signer = krs.(min sender (n - 1)) in
          let good = Core.Keyring.sign signer ~phase ~value ~origin in
          match Util.Rng.int rng 4 with
          | 0 -> Util.Rng.bytes rng 32
          | 1 ->
              let b = Bytes.copy good in
              Bytes.set b 5 (Char.chr (Char.code (Bytes.get b 5) lxor 0x10));
              b
          | _ -> good
        in
        let m = mk_msg ~sender ~phase ~value ~origin ~status ~proof () in
        pool := m :: !pool;
        m
      in
      let some_msg () = if !pool = [] || Util.Rng.bool rng then fresh () else pick !pool in
      let some_digest () =
        if Util.Rng.int rng 4 = 0 then Util.Rng.bytes rng Core.Message.digest_bytes
        else Core.Message.msg_digest (some_msg ())
      in
      let payload () =
        let wjust =
          List.init (Util.Rng.int rng 5) (fun _ ->
              if Util.Rng.bool rng then Core.Message.Full (some_msg ())
              else Core.Message.Ref (some_digest ()))
        in
        let b = Core.Message.encode_wire { Core.Message.wmsg = some_msg (); wjust } in
        match Util.Rng.int rng 6 with
        | 0 -> Bytes.sub b 0 (Util.Rng.int rng (Bytes.length b))
        | 1 ->
            let i = Util.Rng.int rng (Bytes.length b) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Util.Rng.int rng 8)));
            b
        | _ -> b
      in
      let payloads = ref [] in
      let frames = ref [] in
      let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      let decode_both what p =
        let got = outcome (fun () -> Core.Msgstore.decode s p) in
        if Result.map Ref_store.project got <> outcome (fun () -> Ref_store.decode r p) then
          Alcotest.failf "%s: decode disagrees with the model (n=%d)" what n;
        Result.iter (fun fr -> frames := fr :: !frames) got;
        got
      in
      (* a receiver's authenticated set: a random subset of indices *)
      let some_known () =
        let known =
          List.filter (fun _ -> Util.Rng.bool rng)
            (List.init (List.length r.Ref_store.msgs) (fun i -> i + 1))
        in
        fun i -> List.mem i known
      in
      (* an empty payload raises on a fresh store *)
      ignore (decode_both "empty on a fresh store" Bytes.empty);
      for step = 1 to 300 do
        match Util.Rng.int rng 5 with
        | 0 ->
            let p =
              if !payloads <> [] && Util.Rng.bool rng then Bytes.copy (pick !payloads)
              else payload ()
            in
            payloads := p :: !payloads;
            ignore (decode_both (Printf.sprintf "step %d" step) p)
        | 1 ->
            let m = some_msg () in
            Alcotest.(check int) "admit" (Ref_store.admit r m) (Core.Msgstore.admit s m)
        | 2 ->
            let m = some_msg () in
            Alcotest.(check int) "intern" (Ref_store.intern r m) (Core.Msgstore.intern s m)
        | 3 when r.Ref_store.msgs <> [] ->
            let i = 1 + Util.Rng.int rng (List.length r.Ref_store.msgs) in
            let kr = krs.(Util.Rng.int rng n) in
            Alcotest.(check bool) "proof-hash verdict"
              (Core.Keyring.check_message kr (Ref_store.get r i))
              (Core.Msgstore.check s kr i)
        | _ ->
            (* the references of an earlier frame, whose cells may have
               grown since it was decoded *)
            if !frames <> [] then check_resolutions r (pick !frames) (some_known ())
      done;
      (* a reference decoded before any message with its digest is
         stored resolves once one is *)
      let carrier = some_msg () in
      let late = fresh () in
      let p =
        Core.Message.encode_wire
          {
            Core.Message.wmsg = carrier;
            wjust = [ Core.Message.Ref (Core.Message.msg_digest late) ];
          }
      in
      let any () _ = true in
      (match decode_both "early reference" p with
      | Ok ({ Core.Msgstore.just = [| Core.Msgstore.Unknown c |]; _ } as fr) ->
          Alcotest.(check int) "no candidate yet" 0 (Core.Msgstore.resolve any () c);
          Alcotest.(check int) "late intern" (Ref_store.intern r late)
            (Core.Msgstore.intern s late);
          Alcotest.(check bool) "resolves once stored" true
            (Core.Msgstore.resolve any () c <> 0);
          check_resolutions r fr (fun _ -> true);
          check_resolutions r fr (fun _ -> false);
          check_resolutions r fr (some_known ())
      | Ok _ -> Alcotest.fail "early reference: one compact entry expected"
      | Error e -> Alcotest.failf "early reference: %s" e);
      (* a byte-equal copy of a decoded payload hits the memo table:
         the very frame comes back *)
      let hit = decode_both "byte-equal copy" (Bytes.copy p) in
      Alcotest.(check bool) "byte-equal copy hits" true
        (match (hit, !frames) with
        | Ok a, _ :: b :: _ -> a == b
        | _ -> false);
      (* a buffer mutated in place after the decode that cached it
         decodes afresh, and the original bytes still map to the
         original frame: the table keys on a private copy *)
      let q = Core.Message.encode_wire { Core.Message.wmsg = fresh (); wjust = [] } in
      let original = Bytes.copy q in
      let before = decode_both "before mutation" q in
      let last = Bytes.length q - 1 in
      Bytes.set q last (Char.chr (Char.code (Bytes.get q last) lxor 0x01));
      ignore (decode_both "mutated in place" q);
      Alcotest.(check bool) "original bytes still hit" true
        (match (before, decode_both "original bytes" original) with
        | Ok a, Ok b -> a == b
        | _ -> false);
      (* an empty payload after a hit still raises: malformed payloads
         are never cached *)
      ignore (decode_both "empty after a hit" Bytes.empty);
      List.iteri
        (fun i m ->
          Alcotest.(check msg_testable) "get" m (Core.Msgstore.get s (i + 1));
          Alcotest.(check bytes) "digest" (Core.Message.msg_digest m)
            (Core.Msgstore.digest s (i + 1)))
        r.Ref_store.msgs;
      Alcotest.check_raises "no index past the model"
        (Invalid_argument "Msgstore: index out of range") (fun () ->
          ignore (Core.Msgstore.get s (List.length r.Ref_store.msgs + 1)));
      Alcotest.(check int) "size counts V-set members"
        (List.length r.Ref_store.members) (Core.Msgstore.size s))
    [ 4; 7; 10 ]

let suite =
  ( "core-units",
    [
      Alcotest.test_case "value encoding" `Quick test_value_encoding;
      Alcotest.test_case "value of bit" `Quick test_value_of_bit;
      Alcotest.test_case "phase kinds" `Quick test_phase_kinds;
      Alcotest.test_case "default config" `Quick test_default_config;
      Alcotest.test_case "config rejects" `Quick test_validate_config_rejects;
      Alcotest.test_case "quorum thresholds" `Quick test_quorum_thresholds;
      Alcotest.test_case "sigma formula" `Quick test_sigma_formula;
      Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
      Alcotest.test_case "message empty justification" `Quick test_message_empty_justification;
      Alcotest.test_case "message size" `Quick test_message_size_grows_with_justification;
      Alcotest.test_case "message garbage" `Quick test_message_rejects_garbage;
      Alcotest.test_case "message slots" `Quick test_message_slots;
      QCheck_alcotest.to_alcotest qcheck_message_roundtrip;
      Alcotest.test_case "wire plain is encode" `Quick test_wire_plain_is_encode;
      Alcotest.test_case "wire compact roundtrip" `Quick test_wire_compact_roundtrip;
      Alcotest.test_case "wire rejects bad tags" `Quick test_wire_rejects_bad_tags;
      Alcotest.test_case "msg digest covers proof" `Quick test_msg_digest_covers_proof;
      Alcotest.test_case "keyring setup" `Quick test_keyring_setup;
      Alcotest.test_case "keyring cross check" `Quick test_keyring_cross_check;
      Alcotest.test_case "keyring check message" `Quick test_keyring_check_message;
      Alcotest.test_case "keyring out of range" `Quick test_keyring_out_of_range;
      Alcotest.test_case "vset add/dedup" `Quick test_vset_add_dedup;
      Alcotest.test_case "vset counts" `Quick test_vset_counts;
      Alcotest.test_case "vset majority" `Quick test_vset_majority;
      Alcotest.test_case "vset highest" `Quick test_vset_highest;
      Alcotest.test_case "vset some binary" `Quick test_vset_some_binary;
      Alcotest.test_case "vset sorted" `Quick test_vset_messages_at_sorted;
      Alcotest.test_case "vset vs reference model" `Quick test_vset_matches_reference_model;
      Alcotest.test_case "msgstore vs reference model" `Quick
        test_msgstore_matches_reference_model;
    ] )
