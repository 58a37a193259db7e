(* Unit and property tests for the bignum stack (Znum, Prime). *)

let z = Znum.of_string
let zcheck name expected actual = Alcotest.(check string) name expected (Znum.to_string actual)

(* generator for big integers as decimal strings of bounded length *)
let gen_big =
  QCheck.Gen.(
    let* negative = bool in
    let* ndigits = int_range 1 60 in
    let* first = int_range 1 9 in
    let* rest = list_repeat (ndigits - 1) (int_range 0 9) in
    let digits = String.concat "" (List.map string_of_int (first :: rest)) in
    return (Znum.of_string (if negative then "-" ^ digits else digits)))

let arb_big = QCheck.make ~print:Znum.to_string gen_big

let test_of_to_string () =
  zcheck "zero" "0" Znum.zero;
  zcheck "simple" "12345" (z "12345");
  zcheck "negative" "-987654321" (z "-987654321");
  zcheck "big" "123456789012345678901234567890123456789"
    (z "123456789012345678901234567890123456789");
  zcheck "plus sign" "17" (z "+17")

let test_of_string_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Znum.of_string: empty string") (fun () ->
      ignore (z ""));
  Alcotest.check_raises "junk" (Invalid_argument "Znum.of_string: invalid digit") (fun () ->
      ignore (z "12a4"))

let test_int_roundtrip () =
  List.iter
    (fun v ->
      match Znum.to_int_opt (Znum.of_int v) with
      | Some back -> Alcotest.(check int) (string_of_int v) v back
      | None -> Alcotest.fail "should fit")
    [ 0; 1; -1; 42; -42; max_int; min_int; min_int + 1; 1 lsl 40 ]

let test_to_int_overflow () =
  let big = Znum.mul (Znum.of_int max_int) (Znum.of_int 17) in
  Alcotest.(check bool) "too big" true (Znum.to_int_opt big = None);
  (* -min_int = max_int + 1 has min_int's magnitude but not its sign *)
  let past_max = Znum.add (Znum.of_int max_int) Znum.one in
  Alcotest.(check bool) "max_int + 1" true (Znum.to_int_opt past_max = None);
  Alcotest.(check bool) "min_int - 1" true
    (Znum.to_int_opt (Znum.sub (Znum.of_int min_int) Znum.one) = None)

let test_known_product () =
  zcheck "product" "121932631137021795226185032733744855963362292333223746380111126352690"
    (Znum.mul
       (z "123456789012345678901234567890")
       (z "987654321098765432109876543210987654321"))

let test_truncated_division_signs () =
  zcheck "(-7) / 3" "-2" (Znum.div (z "-7") (z "3"));
  zcheck "(-7) mod 3" "-1" (Znum.rem (z "-7") (z "3"));
  zcheck "7 / -3" "-2" (Znum.div (z "7") (z "-3"));
  zcheck "7 mod -3" "1" (Znum.rem (z "7") (z "-3"));
  zcheck "emod -7 3" "2" (Znum.emod (z "-7") (z "3"))

let test_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Znum.divmod Znum.one Znum.zero))

let test_shifts () =
  zcheck "shift_left" "1024" (Znum.shift_left Znum.one 10);
  zcheck "shift_right" "1" (Znum.shift_right (z "1024") 10);
  zcheck "shift_right to zero" "0" (Znum.shift_right (z "5") 10);
  let v = z "123456789123456789123456789" in
  Alcotest.(check bool) "shift roundtrip" true
    (Znum.equal v (Znum.shift_right (Znum.shift_left v 100) 100))

let test_bit_length () =
  Alcotest.(check int) "zero" 0 (Znum.bit_length Znum.zero);
  Alcotest.(check int) "one" 1 (Znum.bit_length Znum.one);
  Alcotest.(check int) "255" 8 (Znum.bit_length (z "255"));
  Alcotest.(check int) "256" 9 (Znum.bit_length (z "256"));
  Alcotest.(check int) "2^100" 101 (Znum.bit_length (Znum.shift_left Znum.one 100))

let test_parity () =
  Alcotest.(check bool) "zero even" true (Znum.is_even Znum.zero);
  Alcotest.(check bool) "one odd" true (Znum.is_odd Znum.one);
  Alcotest.(check bool) "big even" true (Znum.is_even (z "123456789012345678901234567890"))

let test_gcd () =
  zcheck "gcd" "6" (Znum.gcd (z "48") (z "18"));
  zcheck "gcd negative" "6" (Znum.gcd (z "-48") (z "18"));
  zcheck "gcd with zero" "7" (Znum.gcd (z "7") Znum.zero);
  zcheck "gcd coprime" "1" (Znum.gcd (z "35") (z "64"))

let test_egcd_identity () =
  let a = z "123456789" and b = z "987654321" in
  let g, x, y = Znum.egcd a b in
  Alcotest.(check bool) "a*x + b*y = g" true
    (Znum.equal (Znum.add (Znum.mul a x) (Znum.mul b y)) g);
  Alcotest.(check bool) "g = gcd" true (Znum.equal g (Znum.gcd a b))

let test_mod_inv () =
  let p = z "1000003" in
  (match Znum.mod_inv (z "3") ~m:p with
  | Some inv -> zcheck "3 * inv mod p" "1" (Znum.emod (Znum.mul inv (z "3")) p)
  | None -> Alcotest.fail "inverse must exist");
  Alcotest.(check bool) "non-invertible" true (Znum.mod_inv (z "6") ~m:(z "9") = None)

let test_mod_pow () =
  zcheck "2^10 mod 1000" "24" (Znum.mod_pow ~base:Znum.two ~exp:(z "10") ~m:(z "1000"));
  zcheck "x^0" "1" (Znum.mod_pow ~base:(z "999") ~exp:Znum.zero ~m:(z "1000"));
  (* Fermat's little theorem *)
  let p = z "1000003" in
  zcheck "fermat" "1" (Znum.mod_pow ~base:(z "31337") ~exp:(Znum.sub p Znum.one) ~m:p)

let test_bytes_be_roundtrip () =
  let v = z "123456789012345678901234567890" in
  Alcotest.(check bool) "roundtrip" true (Znum.equal v (Znum.of_bytes_be (Znum.to_bytes_be v)));
  let padded = Znum.to_bytes_be ~len:32 v in
  Alcotest.(check int) "padded length" 32 (Bytes.length padded);
  Alcotest.(check bool) "padded value" true (Znum.equal v (Znum.of_bytes_be padded));
  Alcotest.(check bool) "empty is zero" true (Znum.equal Znum.zero (Znum.of_bytes_be Bytes.empty))

let test_bytes_be_len_too_small () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Znum.to_bytes_be: value too large for len") (fun () ->
      ignore (Znum.to_bytes_be ~len:2 (z "16777216")))

let qcheck_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:300 (QCheck.pair arb_big arb_big)
    (fun (a, b) -> Znum.equal (Znum.add a b) (Znum.add b a))

let qcheck_mul_commutes =
  QCheck.Test.make ~name:"mul commutes" ~count:300 (QCheck.pair arb_big arb_big)
    (fun (a, b) -> Znum.equal (Znum.mul a b) (Znum.mul b a))

let qcheck_add_sub_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300 (QCheck.pair arb_big arb_big)
    (fun (a, b) -> Znum.equal (Znum.sub (Znum.add a b) b) a)

let qcheck_divmod_invariant =
  QCheck.Test.make ~name:"a = q*b + r with |r| < |b|" ~count:300
    (QCheck.pair arb_big arb_big) (fun (a, b) ->
      QCheck.assume (Znum.sign b <> 0);
      let q, r = Znum.divmod a b in
      Znum.equal a (Znum.add (Znum.mul q b) r)
      && Znum.compare (Znum.abs r) (Znum.abs b) < 0
      && (Znum.sign r = 0 || Znum.sign r = Znum.sign a))

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:300 arb_big (fun a ->
      Znum.equal a (Znum.of_string (Znum.to_string a)))

let qcheck_distributivity =
  QCheck.Test.make ~name:"a*(b+c) = a*b + a*c" ~count:200
    (QCheck.triple arb_big arb_big arb_big) (fun (a, b, c) ->
      Znum.equal (Znum.mul a (Znum.add b c)) (Znum.add (Znum.mul a b) (Znum.mul a c)))

let qcheck_modpow_mul =
  QCheck.Test.make ~name:"modpow multiplies exponents of same base" ~count:50
    (QCheck.triple QCheck.(int_range 2 1000) QCheck.(int_range 0 50) QCheck.(int_range 0 50))
    (fun (base, e1, e2) ->
      let m = Znum.of_int 1000003 in
      let b = Znum.of_int base in
      let lhs = Znum.mod_pow ~base:b ~exp:(Znum.of_int (e1 + e2)) ~m in
      let rhs =
        Znum.emod
          (Znum.mul
             (Znum.mod_pow ~base:b ~exp:(Znum.of_int e1) ~m)
             (Znum.mod_pow ~base:b ~exp:(Znum.of_int e2) ~m))
          m
      in
      Znum.equal lhs rhs)

(* The reference mod_pow: right-to-left square-and-multiply over [mul]
   and [emod], one bit at a time. *)
let ref_mod_pow ~base ~exp ~m =
  let rec go acc b i =
    if i >= Znum.bit_length exp then acc
    else begin
      let acc = if Znum.testbit exp i then Znum.emod (Znum.mul acc b) m else acc in
      go acc (Znum.emod (Znum.mul b b) m) (i + 1)
    end
  in
  go (Znum.emod Znum.one m) (Znum.emod base m) 0

let limb_bits = 26

(* the value of [limbs] 26-bit limbs, most significant first *)
let of_limbs limbs =
  List.fold_left (fun acc l -> Znum.add (Znum.shift_left acc limb_bits) (Znum.of_int l)) Znum.zero limbs

let gen_limb = QCheck.Gen.int_bound ((1 lsl limb_bits) - 1)
let gen_limbs n = QCheck.Gen.(map of_limbs (list_repeat n gen_limb))

(* exactly [k >= 1] limbs, the top one [top] or else random *)
let gen_nat ?top k =
  QCheck.Gen.(
    let* top = match top with Some t -> return t | None -> int_range 1 ((1 lsl limb_bits) - 1) in
    let* rest = list_repeat (k - 1) gen_limb in
    return (of_limbs (top :: rest)))

(* a modulus of 1-40 limbs, odd but for the even case: the small edge
   cases, a top limb of 1, where the running Montgomery sum is closest to
   spilling into limb k, and full-width random limbs *)
let gen_modulus =
  QCheck.Gen.(
    let odd v = if Znum.is_odd v then v else Znum.add v Znum.one in
    let* k = int_range 1 40 in
    frequency
      [
        (1, return Znum.one);
        (1, return (Znum.of_int 3));
        (1, return (Znum.of_int ((1 lsl limb_bits) - 1)));
        (1, return (Znum.of_int ((1 lsl limb_bits) + 1)));
        (3, map odd (gen_nat ~top:1 k));
        (8, map odd (gen_nat k));
        (1, map (fun v -> if Znum.is_odd v then Znum.add v Znum.one else v) (gen_nat k));
      ])

(* a base of up to one limb more than [m], of either sign, so it is
   often negative or >= m *)
let gen_base m =
  QCheck.Gen.(
    let k = (Znum.bit_length m + limb_bits - 1) / limb_bits in
    let* limbs = int_range 0 (k + 1) in
    let* v = gen_limbs limbs in
    let* negative = bool in
    return (if negative then Znum.neg v else v))

let gen_exponent =
  QCheck.Gen.(
    frequency
      [
        (1, return Znum.zero);
        (1, return Znum.one);
        ( 6,
          let* bits = int_range 2 1100 in
          let limbs = (bits + limb_bits - 1) / limb_bits in
          map (fun v -> Znum.shift_right v ((limbs * limb_bits) - bits)) (gen_limbs limbs) );
      ])

let qcheck_modpow_reference =
  let gen =
    QCheck.Gen.(
      let* m = gen_modulus in
      let* base = gen_base m in
      let* exp = gen_exponent in
      return (base, exp, m))
  in
  let print (base, exp, m) =
    Printf.sprintf "base=%s exp=%s m=%s" (Znum.to_string base) (Znum.to_string exp)
      (Znum.to_string m)
  in
  QCheck.Test.make ~name:"mod_pow matches square-and-multiply" ~count:200
    (QCheck.make ~print gen) (fun (base, exp, m) ->
      Znum.equal (Znum.mod_pow ~base ~exp ~m) (ref_mod_pow ~base ~exp ~m))

(* --- primes ---------------------------------------------------------------- *)

let test_small_primes_table () =
  Alcotest.(check int) "first prime" 2 Prime.small_primes.(0);
  Alcotest.(check bool) "997 in table" true (Array.exists (( = ) 997) Prime.small_primes);
  Alcotest.(check bool) "999 not in table" false (Array.exists (( = ) 999) Prime.small_primes)

let test_primality_known () =
  let rng = Util.Rng.create ~seed:1L in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check bool) v expected (Prime.is_probably_prime rng (z v)))
    [
      ("2", true); ("3", true); ("4", false); ("17", true); ("561", false);
      (* 561 is a Carmichael number *)
      ("1000003", true); ("1000005", false);
      ("2147483647", true); (* Mersenne prime 2^31-1 *)
      ("4294967297", false); (* Fermat number F5 = 641 * 6700417 *)
      ("170141183460469231731687303715884105727", true); (* 2^127 - 1 *)
      ("0", false); ("1", false);
    ]

let test_random_prime_properties () =
  let rng = Util.Rng.create ~seed:5L in
  let p = Prime.random_prime rng ~bits:64 in
  Alcotest.(check int) "exact bits" 64 (Znum.bit_length p);
  Alcotest.(check bool) "odd" true (Znum.is_odd p);
  Alcotest.(check bool) "probably prime" true (Prime.is_probably_prime rng p)

let test_random_below () =
  let rng = Util.Rng.create ~seed:6L in
  let bound = z "1000" in
  for _ = 1 to 200 do
    let v = Prime.random_below rng bound in
    Alcotest.(check bool) "in range" true (Znum.sign v >= 0 && Znum.compare v bound < 0)
  done

let test_schnorr_group () =
  let rng = Util.Rng.create ~seed:7L in
  let g = Prime.schnorr_group rng ~pbits:256 ~qbits:80 in
  Alcotest.(check int) "p bits" 256 (Znum.bit_length g.p);
  Alcotest.(check int) "q bits" 80 (Znum.bit_length g.q);
  (* q divides p-1 *)
  Alcotest.(check bool) "q | p-1" true
    (Znum.sign (Znum.rem (Znum.sub g.p Znum.one) g.q) = 0);
  (* g has order q *)
  Alcotest.(check bool) "g^q = 1" true
    (Znum.equal (Znum.mod_pow ~base:g.g ~exp:g.q ~m:g.p) Znum.one);
  Alcotest.(check bool) "g <> 1" false (Znum.equal g.g Znum.one)

let suite =
  ( "znum",
    [
      Alcotest.test_case "of/to string" `Quick test_of_to_string;
      Alcotest.test_case "of_string rejects" `Quick test_of_string_rejects;
      Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
      Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
      Alcotest.test_case "known product" `Quick test_known_product;
      Alcotest.test_case "truncated division" `Quick test_truncated_division_signs;
      Alcotest.test_case "division by zero" `Quick test_division_by_zero;
      Alcotest.test_case "shifts" `Quick test_shifts;
      Alcotest.test_case "bit length" `Quick test_bit_length;
      Alcotest.test_case "parity" `Quick test_parity;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "egcd identity" `Quick test_egcd_identity;
      Alcotest.test_case "mod_inv" `Quick test_mod_inv;
      Alcotest.test_case "mod_pow" `Quick test_mod_pow;
      Alcotest.test_case "bytes_be roundtrip" `Quick test_bytes_be_roundtrip;
      Alcotest.test_case "bytes_be len check" `Quick test_bytes_be_len_too_small;
      QCheck_alcotest.to_alcotest qcheck_add_commutes;
      QCheck_alcotest.to_alcotest qcheck_mul_commutes;
      QCheck_alcotest.to_alcotest qcheck_add_sub_inverse;
      QCheck_alcotest.to_alcotest qcheck_divmod_invariant;
      QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_distributivity;
      QCheck_alcotest.to_alcotest qcheck_modpow_mul;
      QCheck_alcotest.to_alcotest qcheck_modpow_reference;
      Alcotest.test_case "small primes table" `Quick test_small_primes_table;
      Alcotest.test_case "primality known values" `Quick test_primality_known;
      Alcotest.test_case "random prime" `Quick test_random_prime_properties;
      Alcotest.test_case "random below" `Quick test_random_below;
      Alcotest.test_case "schnorr group" `Quick test_schnorr_group;
    ] )

(* --- additional edge cases ---------------------------------------------------- *)

let test_more_edges () =
  let z = Znum.of_string in
  (* zero handling *)
  Alcotest.(check int) "sign zero" 0 (Znum.sign Znum.zero);
  Alcotest.(check bool) "neg zero is zero" true (Znum.equal (Znum.neg Znum.zero) Znum.zero);
  Alcotest.(check string) "zero times big" "0"
    (Znum.to_string (Znum.mul Znum.zero (z "999999999999999999999")));
  (* subtraction crossing zero *)
  Alcotest.(check string) "small minus big" "-999999999999999999998"
    (Znum.to_string (Znum.sub Znum.one (z "999999999999999999999")));
  (* modpow with base >= modulus *)
  Alcotest.(check string) "big base" "4"
    (Znum.to_string (Znum.mod_pow ~base:(z "102") ~exp:(z "2") ~m:(z "100")));
  (* modpow with negative base (reduced first) *)
  Alcotest.(check string) "negative base" "4"
    (Znum.to_string (Znum.mod_pow ~base:(z "-3") ~exp:(z "2") ~m:(z "5")));
  (* shift by zero *)
  Alcotest.(check bool) "shift 0" true (Znum.equal (Znum.shift_left (z "42") 0) (z "42"));
  (* testbit *)
  Alcotest.(check bool) "bit 0 of 5" true (Znum.testbit (z "5") 0);
  Alcotest.(check bool) "bit 1 of 5" false (Znum.testbit (z "5") 1);
  Alcotest.(check bool) "bit 2 of 5" true (Znum.testbit (z "5") 2);
  Alcotest.(check bool) "bit 1000 of 5" false (Znum.testbit (z "5") 1000)

let test_compare_total_order () =
  let z = Znum.of_string in
  let values = [ z "-100"; z "-1"; Znum.zero; Znum.one; z "99"; z "12345678901234567890" ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          let expected = compare i j in
          let got = Znum.compare a b in
          Alcotest.(check bool)
            (Printf.sprintf "compare %d %d" i j)
            true
            ((expected < 0 && got < 0) || (expected = 0 && got = 0) || (expected > 0 && got > 0)))
        values)
    values

let qcheck_emod_range =
  QCheck.Test.make ~name:"emod lands in [0, m)" ~count:200 (QCheck.pair arb_big arb_big)
    (fun (a, m) ->
      QCheck.assume (Znum.sign m > 0);
      let r = Znum.emod a m in
      Znum.sign r >= 0 && Znum.compare r m < 0
      && Znum.sign (Znum.rem (Znum.sub a r) m) = 0)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "more edges" `Quick test_more_edges;
        Alcotest.test_case "compare total order" `Quick test_compare_total_order;
        QCheck_alcotest.to_alcotest qcheck_emod_range;
      ] )
