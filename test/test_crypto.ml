(* Tests for the crypto layer: SHA-256 (FIPS vectors), HMAC (RFC 4231),
   RSA, one-time signatures, Shamir, the threshold coin, multisig. *)

let hex = Util.Codec.hex

(* --- SHA-256 ---------------------------------------------------------------- *)

let sha_vector (input, expected) () =
  Alcotest.(check string) "digest" expected (Crypto.Sha256.hex_digest_string input)

let test_sha_empty =
  sha_vector ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

let test_sha_abc =
  sha_vector ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

let test_sha_448bits =
  sha_vector
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" )

let test_sha_896bits =
  sha_vector
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" )

let test_sha_million_a () =
  let input = String.make 1_000_000 'a' in
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.hex_digest_string input)

let test_sha_incremental_equals_oneshot () =
  let data = Bytes.of_string (String.init 1000 (fun i -> Char.chr (i mod 256))) in
  let ctx = Crypto.Sha256.init () in
  (* feed in awkward chunk sizes crossing block boundaries *)
  let pos = ref 0 in
  List.iter
    (fun chunk ->
      let take = min chunk (Bytes.length data - !pos) in
      Crypto.Sha256.update ctx (Bytes.sub data !pos take);
      pos := !pos + take)
    [ 1; 3; 60; 64; 65; 127; 128; 300; 1000 ];
  Alcotest.(check string) "incremental" (hex (Crypto.Sha256.digest data))
    (hex (Crypto.Sha256.finalize ctx))

let test_sha_digest_concat () =
  let a = Bytes.of_string "foo" and b = Bytes.of_string "bar" in
  Alcotest.(check string) "concat"
    (hex (Crypto.Sha256.digest_string "foobar"))
    (hex (Crypto.Sha256.digest_concat [ a; b ]))

let test_sha_ctx_reuse_rejected () =
  let ctx = Crypto.Sha256.init () in
  ignore (Crypto.Sha256.finalize ctx);
  Alcotest.check_raises "reuse" (Invalid_argument "Sha256.finalize: context already finalized")
    (fun () -> ignore (Crypto.Sha256.finalize ctx))

let qcheck_sha_incremental =
  QCheck.Test.make ~name:"sha256 split point irrelevant" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let cut = if Bytes.length b = 0 then 0 else cut mod (Bytes.length b + 1) in
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.update ctx (Bytes.sub b 0 cut);
      Crypto.Sha256.update ctx (Bytes.sub b cut (Bytes.length b - cut));
      Bytes.equal (Crypto.Sha256.finalize ctx) (Crypto.Sha256.digest b))

(* --- HMAC (RFC 4231) -------------------------------------------------------- *)

let test_hmac_rfc4231_case1 () =
  let key = Bytes.make 20 '\x0b' in
  let tag = Crypto.Hmac.mac_string ~key "Hi There" in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (hex tag)

let test_hmac_rfc4231_case2 () =
  let tag = Crypto.Hmac.mac_string ~key:(Bytes.of_string "Jefe") "what do ya want for nothing?" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (hex tag)

let test_hmac_rfc4231_case3 () =
  let key = Bytes.make 20 '\xaa' in
  let tag = Crypto.Hmac.mac ~key (Bytes.make 50 '\xdd') in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" (hex tag)

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key must be hashed first *)
  let key = Bytes.make 131 '\xaa' in
  let tag = Crypto.Hmac.mac_string ~key "Test Using Larger Than Block-Size Key - Hash Key First" in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (hex tag)

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let data = Bytes.of_string "payload" in
  let tag = Crypto.Hmac.mac ~key data in
  Alcotest.(check bool) "accepts" true (Crypto.Hmac.verify ~key data ~tag);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "rejects tampered" false (Crypto.Hmac.verify ~key data ~tag:bad);
  Alcotest.(check bool) "rejects short" false
    (Crypto.Hmac.verify ~key data ~tag:(Bytes.sub tag 0 16))

(* --- RSA --------------------------------------------------------------------- *)

let rsa_keys = lazy (Crypto.Rsa.generate (Util.Rng.create ~seed:101L) ~bits:512)

let test_rsa_sign_verify () =
  let kp = Lazy.force rsa_keys in
  let msg = Bytes.of_string "the quick brown fox" in
  let signature = Crypto.Rsa.sign kp.sec msg in
  Alcotest.(check int) "signature length" (Crypto.Rsa.signature_size kp.pub)
    (Bytes.length signature);
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify kp.pub msg ~signature)

let test_rsa_rejects_wrong_message () =
  let kp = Lazy.force rsa_keys in
  let signature = Crypto.Rsa.sign kp.sec (Bytes.of_string "msg-a") in
  Alcotest.(check bool) "rejects" false
    (Crypto.Rsa.verify kp.pub (Bytes.of_string "msg-b") ~signature)

let test_rsa_rejects_tampered_signature () =
  let kp = Lazy.force rsa_keys in
  let msg = Bytes.of_string "msg" in
  let signature = Crypto.Rsa.sign kp.sec msg in
  Bytes.set signature 10
    (Char.chr (Char.code (Bytes.get signature 10) lxor 0x40));
  Alcotest.(check bool) "rejects" false (Crypto.Rsa.verify kp.pub msg ~signature)

let test_rsa_rejects_wrong_key () =
  let kp = Lazy.force rsa_keys in
  let other = Crypto.Rsa.generate (Util.Rng.create ~seed:102L) ~bits:512 in
  let msg = Bytes.of_string "msg" in
  let signature = Crypto.Rsa.sign kp.sec msg in
  Alcotest.(check bool) "rejects" false (Crypto.Rsa.verify other.pub msg ~signature)

let test_rsa_rejects_garbage () =
  let kp = Lazy.force rsa_keys in
  let msg = Bytes.of_string "msg" in
  Alcotest.(check bool) "wrong length" false
    (Crypto.Rsa.verify kp.pub msg ~signature:(Bytes.make 10 'x'));
  Alcotest.(check bool) "all ff (>= n)" false
    (Crypto.Rsa.verify kp.pub msg
       ~signature:(Bytes.make (Crypto.Rsa.signature_size kp.pub) '\xff'))

let test_rsa_public_serialization () =
  let kp = Lazy.force rsa_keys in
  let back = Crypto.Rsa.public_of_bytes (Crypto.Rsa.public_to_bytes kp.pub) in
  let msg = Bytes.of_string "serialized key" in
  let signature = Crypto.Rsa.sign kp.sec msg in
  Alcotest.(check bool) "verify with deserialized key" true
    (Crypto.Rsa.verify back msg ~signature)

let test_rsa_min_bits () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Rsa.generate: modulus too small to sign a SHA-256 digest")
    (fun () -> ignore (Crypto.Rsa.generate (Util.Rng.create ~seed:1L) ~bits:256))

(* --- one-time signatures ------------------------------------------------------ *)

let ots = lazy (Crypto.Onetime_sig.generate (Util.Rng.create ~seed:55L) ~owner:2 ~phases:9)

let test_ots_check () =
  let sk, vk = Lazy.force ots in
  List.iter
    (fun slot ->
      let proof = Crypto.Onetime_sig.reveal sk ~phase:4 slot in
      Alcotest.(check bool) "accepts" true
        (Crypto.Onetime_sig.check vk ~phase:4 slot ~proof))
    Crypto.Onetime_sig.[ S_zero; S_one; S_bot; S_rand_zero; S_rand_one ]

let test_ots_rejects_cross_slot () =
  let sk, vk = Lazy.force ots in
  let proof = Crypto.Onetime_sig.reveal sk ~phase:4 Crypto.Onetime_sig.S_zero in
  Alcotest.(check bool) "wrong slot" false
    (Crypto.Onetime_sig.check vk ~phase:4 Crypto.Onetime_sig.S_one ~proof);
  Alcotest.(check bool) "wrong phase" false
    (Crypto.Onetime_sig.check vk ~phase:5 Crypto.Onetime_sig.S_zero ~proof)

let test_ots_rejects_garbage () =
  let _, vk = Lazy.force ots in
  Alcotest.(check bool) "wrong size" false
    (Crypto.Onetime_sig.check vk ~phase:4 Crypto.Onetime_sig.S_zero ~proof:(Bytes.make 5 'a'));
  Alcotest.(check bool) "random proof" false
    (Crypto.Onetime_sig.check vk ~phase:4 Crypto.Onetime_sig.S_zero
       ~proof:(Bytes.make 32 'a'));
  Alcotest.(check bool) "phase out of range" false
    (Crypto.Onetime_sig.check vk ~phase:10 Crypto.Onetime_sig.S_zero
       ~proof:(Bytes.make 32 'a'))

let test_ots_phase_bounds () =
  let sk, _ = Lazy.force ots in
  Alcotest.check_raises "phase 0" (Invalid_argument "Onetime_sig.reveal: phase 0 out of range")
    (fun () -> ignore (Crypto.Onetime_sig.reveal sk ~phase:0 Crypto.Onetime_sig.S_zero));
  Alcotest.check_raises "past horizon"
    (Invalid_argument "Onetime_sig.reveal: phase 10 out of range") (fun () ->
      ignore (Crypto.Onetime_sig.reveal sk ~phase:10 Crypto.Onetime_sig.S_zero))

let test_ots_serialization () =
  let sk, vk = Lazy.force ots in
  let bytes = Crypto.Onetime_sig.verifier_to_bytes vk in
  let back = Crypto.Onetime_sig.verifier_of_bytes bytes in
  Alcotest.(check int) "owner" (Crypto.Onetime_sig.owner vk) (Crypto.Onetime_sig.owner back);
  Alcotest.(check int) "phases" (Crypto.Onetime_sig.phases vk) (Crypto.Onetime_sig.phases back);
  let proof = Crypto.Onetime_sig.reveal sk ~phase:9 Crypto.Onetime_sig.S_bot in
  Alcotest.(check bool) "checks" true
    (Crypto.Onetime_sig.check back ~phase:9 Crypto.Onetime_sig.S_bot ~proof);
  Alcotest.(check bool) "digest stable" true
    (Bytes.equal (Crypto.Onetime_sig.verifier_digest vk) (Crypto.Onetime_sig.verifier_digest back))

let test_ots_slot_indexing () =
  for i = 0 to Crypto.Onetime_sig.slot_count - 1 do
    Alcotest.(check int) "roundtrip" i
      (Crypto.Onetime_sig.slot_index (Crypto.Onetime_sig.slot_of_index i))
  done;
  Alcotest.check_raises "bad index" (Util.Codec.Malformed "invalid slot index 5") (fun () ->
      ignore (Crypto.Onetime_sig.slot_of_index 5))

(* --- Shamir -------------------------------------------------------------------- *)

let small_q = Znum.of_string "2147483647" (* 2^31 - 1, prime *)

let test_shamir_reconstruct () =
  let rng = Util.Rng.create ~seed:60L in
  let secret = Znum.of_int 1234567 in
  let shares = Crypto.Shamir.deal rng ~q:small_q ~secret ~threshold:3 ~n:7 in
  Alcotest.(check int) "n shares" 7 (List.length shares);
  (* any 3 shares reconstruct *)
  let subset = List.filteri (fun i _ -> i = 0 || i = 3 || i = 6) shares in
  Alcotest.(check string) "reconstructed" "1234567"
    (Znum.to_string (Crypto.Shamir.reconstruct ~q:small_q subset));
  let other = List.filteri (fun i _ -> i >= 4) shares in
  Alcotest.(check string) "other subset" "1234567"
    (Znum.to_string (Crypto.Shamir.reconstruct ~q:small_q other))

let test_shamir_insufficient_shares_wrong () =
  let rng = Util.Rng.create ~seed:61L in
  let secret = Znum.of_int 42 in
  let shares = Crypto.Shamir.deal rng ~q:small_q ~secret ~threshold:4 ~n:6 in
  let subset = List.filteri (fun i _ -> i < 3) shares in
  (* with overwhelming probability 3 of 4-threshold shares miss *)
  Alcotest.(check bool) "not the secret" false
    (Znum.equal (Crypto.Shamir.reconstruct ~q:small_q subset) secret)

let test_shamir_threshold_one () =
  let rng = Util.Rng.create ~seed:62L in
  let secret = Znum.of_int 99 in
  let shares = Crypto.Shamir.deal rng ~q:small_q ~secret ~threshold:1 ~n:3 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "each share is the secret" true
        (Znum.equal (Crypto.Shamir.reconstruct ~q:small_q [ s ]) secret))
    shares

let test_shamir_lagrange_sums_to_one () =
  (* sum of lambda_i(0) equals interpolation of the constant 1 *)
  let lambdas = Crypto.Shamir.lagrange_at_zero ~q:small_q [ 1; 2; 5 ] in
  let sum =
    List.fold_left (fun acc (_, l) -> Znum.emod (Znum.add acc l) small_q) Znum.zero lambdas
  in
  Alcotest.(check string) "sum is 1" "1" (Znum.to_string sum)

let test_shamir_rejects () =
  let rng = Util.Rng.create ~seed:63L in
  Alcotest.check_raises "threshold > n"
    (Invalid_argument "Shamir.deal: need 1 <= threshold <= n") (fun () ->
      ignore (Crypto.Shamir.deal rng ~q:small_q ~secret:Znum.one ~threshold:5 ~n:3));
  Alcotest.check_raises "duplicate indices"
    (Invalid_argument "Shamir.lagrange_at_zero: duplicate indices") (fun () ->
      ignore (Crypto.Shamir.lagrange_at_zero ~q:small_q [ 1; 1 ]))

(* --- threshold coin -------------------------------------------------------------- *)

let coin_setup =
  lazy (Crypto.Coin.setup (Util.Rng.create ~seed:70L) ~n:7 ~threshold:3 ~pbits:256 ~qbits:96 ())

let test_coin_share_verify () =
  let params, keys = Lazy.force coin_setup in
  Array.iter
    (fun ks ->
      let share = Crypto.Coin.create_share params ks ~name:"r1" in
      Alcotest.(check bool) "valid" true (Crypto.Coin.verify_share params ~name:"r1" share))
    keys

let test_coin_share_rejects_wrong_name () =
  let params, keys = Lazy.force coin_setup in
  let share = Crypto.Coin.create_share params keys.(0) ~name:"r1" in
  Alcotest.(check bool) "wrong name" false
    (Crypto.Coin.verify_share params ~name:"r2" share)

let test_coin_share_rejects_tampered () =
  let params, keys = Lazy.force coin_setup in
  let share = Crypto.Coin.create_share params keys.(0) ~name:"r1" in
  let raw = Crypto.Coin.share_to_bytes share in
  Bytes.set raw (Bytes.length raw - 1)
    (Char.chr (Char.code (Bytes.get raw (Bytes.length raw - 1)) lxor 1));
  let tampered = Crypto.Coin.share_of_bytes raw in
  Alcotest.(check bool) "tampered" false (Crypto.Coin.verify_share params ~name:"r1" tampered)

let test_coin_combine_consistent () =
  let params, keys = Lazy.force coin_setup in
  let shares =
    Array.to_list (Array.map (fun ks -> Crypto.Coin.create_share params ks ~name:"round-5") keys)
  in
  let subset1 = List.filteri (fun i _ -> i < 3) shares in
  let subset2 = List.filteri (fun i _ -> i >= 4) shares in
  match
    ( Crypto.Coin.combine params ~name:"round-5" subset1,
      Crypto.Coin.combine params ~name:"round-5" subset2 )
  with
  | Some b1, Some b2 ->
      Alcotest.(check int) "same coin from disjoint subsets" b1 b2;
      Alcotest.(check bool) "binary" true (b1 = 0 || b1 = 1)
  | _ -> Alcotest.fail "combine failed"

let test_coin_combine_insufficient () =
  let params, keys = Lazy.force coin_setup in
  let share = Crypto.Coin.create_share params keys.(0) ~name:"r9" in
  Alcotest.(check bool) "below threshold" true
    (Crypto.Coin.combine params ~name:"r9" [ share ] = None)

let test_coin_combine_ignores_invalid () =
  let params, keys = Lazy.force coin_setup in
  let good =
    List.map (fun i -> Crypto.Coin.create_share params keys.(i) ~name:"r10") [ 0; 1 ]
  in
  let wrong_name = Crypto.Coin.create_share params keys.(2) ~name:"other" in
  Alcotest.(check bool) "2 good + 1 bad < threshold" true
    (Crypto.Coin.combine params ~name:"r10" (wrong_name :: good) = None)

let test_coin_share_serialization () =
  let params, keys = Lazy.force coin_setup in
  let share = Crypto.Coin.create_share params keys.(3) ~name:"ser" in
  let back = Crypto.Coin.share_of_bytes (Crypto.Coin.share_to_bytes share) in
  Alcotest.(check int) "owner" (Crypto.Coin.share_owner share) (Crypto.Coin.share_owner back);
  Alcotest.(check bool) "still valid" true (Crypto.Coin.verify_share params ~name:"ser" back)

let test_coin_different_names_vary () =
  (* across many names, both coin values must appear *)
  let params, keys = Lazy.force coin_setup in
  let seen = Hashtbl.create 2 in
  for i = 0 to 15 do
    let name = Printf.sprintf "round-%d" i in
    let shares =
      List.map (fun j -> Crypto.Coin.create_share params keys.(j) ~name) [ 0; 1; 2 ]
    in
    match Crypto.Coin.combine params ~name shares with
    | Some b -> Hashtbl.replace seen b ()
    | None -> Alcotest.fail "combine failed"
  done;
  Alcotest.(check int) "both values appear" 2 (Hashtbl.length seen)

(* --- pinned key material ----------------------------------------------------------- *)

(* Key generation and the coin are deterministic functions of their
   seeds, and ABBA's outputs depend on them (its coin values decide
   rounds), so a change to the bignum or prime layers must leave these
   bytes alone. The coin share covers the Schnorr group (through the
   hashed base and the DLEQ proof), the dealt share and the proof at
   ABBA's n=4 parameters. *)
let test_pinned_key_material () =
  let fingerprint b = hex (Crypto.Sha256.digest b) in
  Alcotest.(check string) "rsa seed 101 public key"
    "1bc7193ba0f2810130f079d3fe3fd8acab41667f3acf316569150fae3e9295bd"
    (fingerprint (Crypto.Rsa.public_to_bytes (Lazy.force rsa_keys).pub));
  let params, keys = Crypto.Coin.setup (Util.Rng.create ~seed:103L) ~n:4 ~threshold:2 () in
  Alcotest.(check string) "coin seed 103 share"
    "a4121ef27d369eac06f6d2f16d3ab1e747532bbedf463cbcd423d74b66d5a181"
    (fingerprint (Crypto.Coin.share_to_bytes (Crypto.Coin.create_share params keys.(0) ~name:"coin|1")))

(* --- multisig ---------------------------------------------------------------------- *)

let ms_keys =
  lazy
    (let rng = Util.Rng.create ~seed:80L in
     Array.init 4 (fun _ -> Crypto.Rsa.generate rng ~bits:512))

let ms_pubs () = Array.map (fun (k : Crypto.Rsa.keypair) -> k.pub) (Lazy.force ms_keys)

let test_multisig_verify () =
  let keys = Lazy.force ms_keys in
  let msg = Bytes.of_string "agree on this" in
  let ms = Crypto.Multisig.create (List.init 3 (fun i -> (i, Crypto.Rsa.sign keys.(i).sec msg))) in
  Alcotest.(check int) "count" 3 (Crypto.Multisig.count ms);
  Alcotest.(check (list int)) "signers" [ 0; 1; 2 ] (Crypto.Multisig.signers ms);
  Alcotest.(check bool) "k=3" true (Crypto.Multisig.verify ~keys:(ms_pubs ()) ~msg ~k:3 ms);
  Alcotest.(check bool) "k=4 fails" false (Crypto.Multisig.verify ~keys:(ms_pubs ()) ~msg ~k:4 ms)

let test_multisig_bad_signature_not_counted () =
  let keys = Lazy.force ms_keys in
  let msg = Bytes.of_string "m" in
  let ms =
    Crypto.Multisig.create
      [
        (0, Crypto.Rsa.sign keys.(0).sec msg);
        (1, Bytes.make (Crypto.Rsa.signature_size keys.(1).pub) 'z');
      ]
  in
  Alcotest.(check bool) "k=2 fails" false (Crypto.Multisig.verify ~keys:(ms_pubs ()) ~msg ~k:2 ms);
  Alcotest.(check bool) "k=1 ok" true (Crypto.Multisig.verify ~keys:(ms_pubs ()) ~msg ~k:1 ms)

let test_multisig_out_of_range_signer () =
  let keys = Lazy.force ms_keys in
  let msg = Bytes.of_string "m" in
  let ms = Crypto.Multisig.create [ (9, Crypto.Rsa.sign keys.(0).sec msg) ] in
  Alcotest.(check bool) "unknown signer" false
    (Crypto.Multisig.verify ~keys:(ms_pubs ()) ~msg ~k:1 ms)

let test_multisig_replace () =
  let ms = Crypto.Multisig.create [ (1, Bytes.of_string "a"); (1, Bytes.of_string "b") ] in
  Alcotest.(check int) "one signer" 1 (Crypto.Multisig.count ms)

let test_multisig_serialization () =
  let keys = Lazy.force ms_keys in
  let msg = Bytes.of_string "wire" in
  let ms = Crypto.Multisig.create (List.init 2 (fun i -> (i, Crypto.Rsa.sign keys.(i).sec msg))) in
  let back = Crypto.Multisig.of_bytes (Crypto.Multisig.to_bytes ms) in
  Alcotest.(check bool) "verifies" true (Crypto.Multisig.verify ~keys:(ms_pubs ()) ~msg ~k:2 back);
  Alcotest.(check int) "size" (Bytes.length (Crypto.Multisig.to_bytes ms)) (Crypto.Multisig.size ms)

let suite =
  ( "crypto",
    [
      Alcotest.test_case "sha256 empty" `Quick test_sha_empty;
      Alcotest.test_case "sha256 abc" `Quick test_sha_abc;
      Alcotest.test_case "sha256 448 bits" `Quick test_sha_448bits;
      Alcotest.test_case "sha256 896 bits" `Quick test_sha_896bits;
      Alcotest.test_case "sha256 million a" `Slow test_sha_million_a;
      Alcotest.test_case "sha256 incremental" `Quick test_sha_incremental_equals_oneshot;
      Alcotest.test_case "sha256 digest_concat" `Quick test_sha_digest_concat;
      Alcotest.test_case "sha256 ctx reuse" `Quick test_sha_ctx_reuse_rejected;
      QCheck_alcotest.to_alcotest qcheck_sha_incremental;
      Alcotest.test_case "hmac rfc4231 case1" `Quick test_hmac_rfc4231_case1;
      Alcotest.test_case "hmac rfc4231 case2" `Quick test_hmac_rfc4231_case2;
      Alcotest.test_case "hmac rfc4231 case3" `Quick test_hmac_rfc4231_case3;
      Alcotest.test_case "hmac long key" `Quick test_hmac_long_key;
      Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
      Alcotest.test_case "rsa sign/verify" `Quick test_rsa_sign_verify;
      Alcotest.test_case "rsa wrong message" `Quick test_rsa_rejects_wrong_message;
      Alcotest.test_case "rsa tampered signature" `Quick test_rsa_rejects_tampered_signature;
      Alcotest.test_case "rsa wrong key" `Quick test_rsa_rejects_wrong_key;
      Alcotest.test_case "rsa garbage" `Quick test_rsa_rejects_garbage;
      Alcotest.test_case "rsa public serialization" `Quick test_rsa_public_serialization;
      Alcotest.test_case "rsa min bits" `Quick test_rsa_min_bits;
      Alcotest.test_case "ots check all slots" `Quick test_ots_check;
      Alcotest.test_case "ots cross slot" `Quick test_ots_rejects_cross_slot;
      Alcotest.test_case "ots garbage" `Quick test_ots_rejects_garbage;
      Alcotest.test_case "ots phase bounds" `Quick test_ots_phase_bounds;
      Alcotest.test_case "ots serialization" `Quick test_ots_serialization;
      Alcotest.test_case "ots slot indexing" `Quick test_ots_slot_indexing;
      Alcotest.test_case "shamir reconstruct" `Quick test_shamir_reconstruct;
      Alcotest.test_case "shamir insufficient" `Quick test_shamir_insufficient_shares_wrong;
      Alcotest.test_case "shamir threshold 1" `Quick test_shamir_threshold_one;
      Alcotest.test_case "shamir lagrange sum" `Quick test_shamir_lagrange_sums_to_one;
      Alcotest.test_case "shamir rejects" `Quick test_shamir_rejects;
      Alcotest.test_case "coin share verify" `Quick test_coin_share_verify;
      Alcotest.test_case "coin wrong name" `Quick test_coin_share_rejects_wrong_name;
      Alcotest.test_case "coin tampered share" `Quick test_coin_share_rejects_tampered;
      Alcotest.test_case "coin combine consistent" `Quick test_coin_combine_consistent;
      Alcotest.test_case "coin insufficient" `Quick test_coin_combine_insufficient;
      Alcotest.test_case "coin ignores invalid" `Quick test_coin_combine_ignores_invalid;
      Alcotest.test_case "coin share serialization" `Quick test_coin_share_serialization;
      Alcotest.test_case "coin values vary" `Quick test_coin_different_names_vary;
      Alcotest.test_case "pinned key material" `Quick test_pinned_key_material;
      Alcotest.test_case "multisig verify" `Quick test_multisig_verify;
      Alcotest.test_case "multisig bad signature" `Quick test_multisig_bad_signature_not_counted;
      Alcotest.test_case "multisig unknown signer" `Quick test_multisig_out_of_range_signer;
      Alcotest.test_case "multisig replace" `Quick test_multisig_replace;
      Alcotest.test_case "multisig serialization" `Quick test_multisig_serialization;
    ] )
