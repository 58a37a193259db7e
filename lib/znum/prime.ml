let small_primes =
  (* primes below 1000 via a tiny sieve at module load *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

let random_bits rng ~bits =
  if bits <= 0 then Znum.zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = Util.Rng.bytes rng nbytes in
    (* mask excess high bits *)
    let excess = (nbytes * 8) - bits in
    if excess > 0 then
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xFF lsr excess)));
    Znum.of_bytes_be b
  end

let random_below rng bound =
  if Znum.sign bound <= 0 then invalid_arg "Prime.random_below: bound must be positive";
  let bits = Znum.bit_length bound in
  let rec draw () =
    let v = random_bits rng ~bits in
    if Znum.compare v bound < 0 then v else draw ()
  in
  draw ()

let trial_division_passes n =
  (* returns false when a small prime divides n (and n is not that prime) *)
  let ok = ref true in
  let i = ref 0 in
  let np = Array.length small_primes in
  while !ok && !i < np do
    let p = Znum.of_int small_primes.(!i) in
    if Znum.sign (Znum.rem n p) = 0 && not (Znum.equal n p) then ok := false;
    incr i
  done;
  !ok

let miller_rabin_round rng n n_minus_1 d s =
  (* one round with a random base; returns true when n passes *)
  let a = Znum.add Znum.two (random_below rng (Znum.sub n (Znum.of_int 4))) in
  let x = ref (Znum.mod_pow ~base:a ~exp:d ~m:n) in
  if Znum.equal !x Znum.one || Znum.equal !x n_minus_1 then true
  else begin
    let witness = ref true in
    let r = ref 1 in
    while !witness && !r < s do
      x := Znum.emod (Znum.mul !x !x) n;
      if Znum.equal !x n_minus_1 then witness := false;
      incr r
    done;
    not !witness
  end

let is_probably_prime rng n =
  if Znum.compare n Znum.two < 0 then false
  else if Znum.compare n (Znum.of_int 1000) <= 0 then begin
    match Znum.to_int_opt n with
    | Some v -> Array.exists (fun p -> p = v) small_primes
    | None -> assert false
  end
  else if Znum.is_even n then false
  else if not (trial_division_passes n) then false
  else begin
    let n_minus_1 = Znum.sub n Znum.one in
    (* n-1 = d * 2^s with d odd *)
    let rec split d s = if Znum.is_odd d then (d, s) else split (Znum.shift_right d 1) (s + 1) in
    let d, s = split n_minus_1 0 in
    let rec go i = i >= 24 || (miller_rabin_round rng n n_minus_1 d s && go (i + 1)) in
    go 0
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: need at least 2 bits";
  let top = Znum.shift_left Znum.one (bits - 1) in
  let rec search () =
    let candidate = Znum.add top (random_bits rng ~bits:(bits - 1)) in
    let candidate = if Znum.is_even candidate then Znum.add candidate Znum.one else candidate in
    if Znum.bit_length candidate = bits && is_probably_prime rng candidate then candidate
    else search ()
  in
  search ()

type schnorr_group = { p : Znum.t; q : Znum.t; g : Znum.t }

let schnorr_group rng ~pbits ~qbits =
  if qbits >= pbits then invalid_arg "Prime.schnorr_group: need qbits < pbits";
  let q = random_prime rng ~bits:qbits in
  let rec find_p () =
    (* p = q*r + 1 of exactly pbits bits, r even so p is odd *)
    let r = random_bits rng ~bits:(pbits - qbits) in
    let r = if Znum.is_odd r then Znum.add r Znum.one else r in
    let p = Znum.add (Znum.mul q r) Znum.one in
    if Znum.bit_length p = pbits && is_probably_prime rng p then p else find_p ()
  in
  let p = find_p () in
  let exponent = Znum.div (Znum.sub p Znum.one) q in
  let rec find_g () =
    let h = Znum.add Znum.two (random_below rng (Znum.sub p (Znum.of_int 4))) in
    let g = Znum.mod_pow ~base:h ~exp:exponent ~m:p in
    if Znum.equal g Znum.one then find_g () else g
  in
  let g = find_g () in
  { p; q; g }
