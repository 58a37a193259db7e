(* Magnitudes are little-endian arrays of limbs in base 2^26. The limb
   width is chosen so that every intermediate product or Knuth-D quotient
   estimate (at most 2^52 + 2^26) fits in a native 63-bit int. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

module Nat = struct
  type t = int array
  (* invariant: no leading (high-index) zero limb; [||] is zero *)

  let zero : t = [||]
  let is_zero (a : t) = Array.length a = 0

  let norm (a : int array) : t =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let of_int v =
    (* v >= 0 *)
    if v = 0 then zero
    else begin
      let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
      let n = count 0 v in
      Array.init n (fun i -> (v lsr (limb_bits * i)) land limb_mask)
    end

  let to_int_opt (a : t) =
    let n = Array.length a in
    if n * limb_bits <= 62 then begin
      let v = ref 0 in
      for i = n - 1 downto 0 do
        v := (!v lsl limb_bits) lor a.(i)
      done;
      Some !v
    end
    else begin
      (* may still fit if high limbs contribute < 63 bits total *)
      let v = ref 0 in
      let ok = ref true in
      for i = n - 1 downto 0 do
        if !v > (max_int - a.(i)) lsr limb_bits then ok := false
        else v := (!v lsl limb_bits) lor a.(i)
      done;
      if !ok then Some !v else None
    end

  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
        else go (i - 1)
      in
      go (la - 1)
    end

  let add (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    let n = max la lb in
    let out = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
      out.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    out.(n) <- !carry;
    norm out

  (* precondition: a >= b *)
  let sub (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if d < 0 then begin
        out.(i) <- d + base;
        borrow := 1
      end
      else begin
        out.(i) <- d;
        borrow := 0
      end
    done;
    assert (!borrow = 0);
    norm out

  let mul (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then zero
    else begin
      let out = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let carry = ref 0 in
        let ai = a.(i) in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + out.(i + j) + !carry in
          out.(i + j) <- t land limb_mask;
          carry := t lsr limb_bits
        done;
        out.(i + lb) <- out.(i + lb) + !carry
      done;
      norm out
    end

  let shift_left (a : t) bits : t =
    if is_zero a || bits = 0 then (if bits = 0 then a else a)
    else begin
      let limbs = bits / limb_bits and rem = bits mod limb_bits in
      let la = Array.length a in
      let out = Array.make (la + limbs + 1) 0 in
      for i = 0 to la - 1 do
        let v = a.(i) lsl rem in
        out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
        out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
      done;
      norm out
    end

  let shift_right (a : t) bits : t =
    if is_zero a || bits = 0 then a
    else begin
      let limbs = bits / limb_bits and rem = bits mod limb_bits in
      let la = Array.length a in
      if limbs >= la then zero
      else begin
        let n = la - limbs in
        let out = Array.make n 0 in
        for i = 0 to n - 1 do
          let lo = a.(i + limbs) lsr rem in
          let hi = if i + limbs + 1 < la && rem > 0 then (a.(i + limbs + 1) lsl (limb_bits - rem)) land limb_mask else 0 in
          out.(i) <- lo lor hi
        done;
        norm out
      end
    end

  let bit_length (a : t) =
    let la = Array.length a in
    if la = 0 then 0
    else begin
      let top = a.(la - 1) in
      let rec msb acc v = if v = 0 then acc else msb (acc + 1) (v lsr 1) in
      ((la - 1) * limb_bits) + msb 0 top
    end

  let testbit (a : t) i =
    let limb = i / limb_bits and off = i mod limb_bits in
    limb < Array.length a && (a.(limb) lsr off) land 1 = 1

  (* Short division by a single limb 0 < d < base. *)
  let divmod_limb (a : t) d : t * int =
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (norm q, !r)

  (* Knuth algorithm D. Returns (quotient, remainder). b <> 0. *)
  let divmod (a : t) (b : t) : t * t =
    if is_zero b then raise Division_by_zero;
    if compare a b < 0 then (zero, a)
    else if Array.length b = 1 then begin
      let q, r = divmod_limb a b.(0) in
      (q, if r = 0 then zero else [| r |])
    end
    else begin
      let n = Array.length b in
      (* normalize: top limb of divisor >= base/2 *)
      let s =
        let rec go s v = if v >= base / 2 then s else go (s + 1) (v lsl 1) in
        go 0 b.(n - 1)
      in
      let u0 = shift_left a s and v = shift_left b s in
      assert (Array.length v = n);
      let m = Array.length u0 - n in
      (* u gets one extra high limb *)
      let u = Array.make (Array.length u0 + 1) 0 in
      Array.blit u0 0 u 0 (Array.length u0);
      let q = Array.make (m + 1) 0 in
      let vtop = v.(n - 1) and vsecond = v.(n - 2) in
      for j = m downto 0 do
        let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
        let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
        let continue_adjust = ref true in
        while !continue_adjust do
          if !qhat >= base || !qhat * vsecond > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
            decr qhat;
            rhat := !rhat + vtop;
            if !rhat >= base then continue_adjust := false
          end
          else continue_adjust := false
        done;
        (* multiply and subtract: u[j..j+n] -= qhat * v *)
        let borrow = ref 0 and carry = ref 0 in
        for i = 0 to n - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr limb_bits;
          let d = u.(i + j) - (p land limb_mask) - !borrow in
          if d < 0 then begin
            u.(i + j) <- d + base;
            borrow := 1
          end
          else begin
            u.(i + j) <- d;
            borrow := 0
          end
        done;
        let d = u.(j + n) - !carry - !borrow in
        if d < 0 then begin
          (* qhat was one too large: add back *)
          u.(j + n) <- d + base;
          decr qhat;
          let carry2 = ref 0 in
          for i = 0 to n - 1 do
            let s2 = u.(i + j) + v.(i) + !carry2 in
            u.(i + j) <- s2 land limb_mask;
            carry2 := s2 lsr limb_bits
          done;
          u.(j + n) <- (u.(j + n) + !carry2) land limb_mask
        end
        else u.(j + n) <- d;
        q.(j) <- !qhat
      done;
      let r = norm (Array.sub u 0 n) in
      (norm q, shift_right r s)
    end
end

(* Montgomery arithmetic modulo an odd [m] of k limbs, with R = base^k.
   Operands are k-limb buffers (high zero limbs allowed) holding values
   below m. Every buffer belongs to one [mod_pow] call: pool domains run
   calls concurrently, so there is no shared scratch. *)
module Mont = struct
  (* -m^-1 mod base for odd [m0] by Newton iteration: m0 is its own
     inverse mod 8, and each step x <- x(2 - m0 x) doubles the number of
     correct low bits (3, 6, 12, 24, 48). Native ints wrap mod 2^63, a
     multiple of base, so the low limb stays exact. *)
  let neg_inv m0 =
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x))
    done;
    (- !x) land limb_mask

  (* [out] <- a b R^-1 mod m, CIOS with the multiply and reduce passes
     fused: step i adds a b_i and the multiple q m that clears the low
     limb, then shifts down one limb. For a, b < m the running sum stays
     below 2m, so [t.(k)] is 0 or 1, and every column sum stays below
     2^54. [t] is k+1 limbs of scratch; [out] may alias [a] or [b].
     Indices are bounded by k = length m by construction. *)
  let mul ~(m : int array) ~minv ~(t : int array) (a : int array) (b : int array)
      (out : int array) =
    let k = Array.length m in
    Array.fill t 0 (k + 1) 0;
    for i = 0 to k - 1 do
      let bi = Array.unsafe_get b i in
      let s = Array.unsafe_get t 0 + (Array.unsafe_get a 0 * bi) in
      let q = (s * minv) land limb_mask in
      let c = ref ((s + (q * Array.unsafe_get m 0)) lsr limb_bits) in
      for j = 1 to k - 1 do
        let s =
          Array.unsafe_get t j + (Array.unsafe_get a j * bi) + (q * Array.unsafe_get m j) + !c
        in
        Array.unsafe_set t (j - 1) (s land limb_mask);
        c := s lsr limb_bits
      done;
      let s = Array.unsafe_get t k + !c in
      Array.unsafe_set t (k - 1) (s land limb_mask);
      Array.unsafe_set t k (s lsr limb_bits)
    done;
    (* t < 2m: subtract m once if t >= m *)
    let j = ref (k - 1) in
    while !j >= 0 && t.(!j) = m.(!j) do
      decr j
    done;
    if t.(k) > 0 || !j < 0 || t.(!j) > m.(!j) then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = t.(i) - m.(i) - !borrow in
        out.(i) <- d land limb_mask;
        borrow := -(d asr limb_bits)
      done
    end
    else Array.blit t 0 out 0 k

  (* b^e mod m for b < m, with a fixed 4-bit exponent window *)
  let pow (b : Nat.t) (e : Nat.t) (m : Nat.t) : Nat.t =
    let k = Array.length m in
    let minv = neg_inv m.(0) and t = Array.make (k + 1) 0 in
    let mul a b out = mul ~m ~minv ~t a b out in
    let to_mont v =
      let r = snd (Nat.divmod (Nat.shift_left v (limb_bits * k)) m) in
      let out = Array.make k 0 in
      Array.blit r 0 out 0 (Array.length r);
      out
    in
    (* table.(d) = b^d R mod m *)
    let table = Array.make 16 [||] in
    table.(0) <- to_mont (Nat.of_int 1);
    table.(1) <- to_mont b;
    for d = 2 to 15 do
      let v = Array.make k 0 in
      mul table.(d - 1) table.(1) v;
      table.(d) <- v
    done;
    (* bits 4w..4w+3 of e *)
    let digit w =
      let d = ref 0 in
      for i = 3 downto 0 do
        d := (2 * !d) + Bool.to_int (Nat.testbit e ((4 * w) + i))
      done;
      !d
    in
    let windows = (Nat.bit_length e + 3) / 4 in
    let acc = Array.copy table.(if windows = 0 then 0 else digit (windows - 1)) in
    for w = windows - 2 downto 0 do
      for _ = 1 to 4 do
        mul acc acc acc
      done;
      let d = digit w in
      if d <> 0 then mul acc table.(d) acc
    done;
    (* leave Montgomery form: acc 1 R^-1 *)
    let one = Array.make k 0 in
    one.(0) <- 1;
    mul acc one acc;
    Nat.norm acc
end

type t = { sg : int; mag : Nat.t }
(* invariant: sg ∈ {-1, 0, 1}; sg = 0 iff mag is zero *)

let mk sg mag = if Nat.is_zero mag then { sg = 0; mag = Nat.zero } else { sg; mag }
let zero = { sg = 0; mag = Nat.zero }
let one = { sg = 1; mag = Nat.of_int 1 }
let two = { sg = 1; mag = Nat.of_int 2 }

let of_int v = if v = 0 then zero else if v > 0 then mk 1 (Nat.of_int v) else mk (-1) (Nat.of_int (-v))

(* the magnitude max_int + 1 fits in an int only as min_int *)
let min_int_mag = Nat.add (Nat.of_int max_int) (Nat.of_int 1)

let to_int_opt t =
  match Nat.to_int_opt t.mag with
  | Some m -> Some (if t.sg < 0 then -m else m)
  | None -> if t.sg < 0 && Nat.compare t.mag min_int_mag = 0 then Some min_int else None

let sign t = t.sg
let neg t = mk (-t.sg) t.mag
let abs t = mk (Stdlib.abs t.sg) t.mag

let compare a b =
  if a.sg <> b.sg then Stdlib.compare a.sg b.sg
  else if a.sg >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  if a.sg = 0 then b
  else if b.sg = 0 then a
  else if a.sg = b.sg then mk a.sg (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sg (Nat.sub a.mag b.mag)
    else mk b.sg (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let mul a b = if a.sg = 0 || b.sg = 0 then zero else mk (a.sg * b.sg) (Nat.mul a.mag b.mag)

let divmod a b =
  if b.sg = 0 then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  (* truncated: quotient sign = product of signs, remainder sign = dividend's *)
  (mk (a.sg * b.sg) q, mk a.sg r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let emod a m =
  if m.sg <= 0 then invalid_arg "Znum.emod: modulus must be positive";
  let r = rem a m in
  if r.sg < 0 then add r m else r

let shift_left t bits = if bits < 0 then invalid_arg "Znum.shift_left" else mk t.sg (Nat.shift_left t.mag bits)
let shift_right t bits = if bits < 0 then invalid_arg "Znum.shift_right" else mk t.sg (Nat.shift_right t.mag bits)
let bit_length t = Nat.bit_length t.mag
let testbit t i = Nat.testbit t.mag i
let is_even t = not (testbit t 0)
let is_odd t = testbit t 0

let rec gcd a b = if b.sg = 0 then abs a else gcd b (rem a b)

let egcd a b =
  (* iterative extended Euclid on the values as given *)
  let rec go old_r r old_s s old_t t =
    if r.sg = 0 then (old_r, old_s, old_t)
    else begin
      let q = div old_r r in
      go r (sub old_r (mul q r)) s (sub old_s (mul q s)) t (sub old_t (mul q t))
    end
  in
  let g, x, y = go a b one zero zero one in
  if g.sg < 0 then (neg g, neg x, neg y) else (g, x, y)

let mod_inv t ~m =
  if m.sg <= 0 then invalid_arg "Znum.mod_inv: modulus must be positive";
  let g, x, _ = egcd (emod t m) m in
  if not (equal g one) then None else Some (emod x m)

let mod_pow ~base:b ~exp ~m =
  if m.sg <= 0 then invalid_arg "Znum.mod_pow: modulus must be positive";
  if exp.sg < 0 then invalid_arg "Znum.mod_pow: negative exponent";
  if is_odd m then mk 1 (Mont.pow (emod b m).mag exp.mag m.mag)
  else begin
    (* even moduli have no Montgomery form: square-and-multiply *)
    let b = ref (emod b m) in
    let result = ref (emod one m) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if testbit exp i then result := emod (mul !result !b) m;
      if i < nbits - 1 then b := emod (mul !b !b) m
    done;
    !result
  end

(* Decimal I/O through chunks of 10^7 (< 2^26, so a single limb). *)
let chunk = 10_000_000
let chunk_digits = 7

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Znum.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Znum.of_string: no digits";
  let acc = ref Nat.zero in
  let chunk_nat = Nat.of_int chunk in
  let i = ref start in
  (* leading partial chunk so subsequent chunks are exactly 7 digits *)
  let first_len =
    let d = (n - start) mod chunk_digits in
    if d = 0 then chunk_digits else d
  in
  let parse_chunk pos len =
    let v = ref 0 in
    for j = pos to pos + len - 1 do
      match s.[j] with
      | '0' .. '9' -> v := (!v * 10) + (Char.code s.[j] - Char.code '0')
      | _ -> invalid_arg "Znum.of_string: invalid digit"
    done;
    !v
  in
  acc := Nat.of_int (parse_chunk start first_len);
  i := start + first_len;
  while !i < n do
    acc := Nat.add (Nat.mul !acc chunk_nat) (Nat.of_int (parse_chunk !i chunk_digits));
    i := !i + chunk_digits
  done;
  mk (if negative then -1 else 1) !acc

let to_string t =
  if t.sg = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Nat.is_zero mag then acc
      else begin
        let q, r = Nat.divmod_limb mag chunk in
        go q (r :: acc)
      end
    in
    let chunks = go t.mag [] in
    if t.sg < 0 then Buffer.add_char buf '-';
    (match chunks with
    | [] -> assert false
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest);
    Buffer.contents buf
  end

let of_bytes_be b =
  let n = Bytes.length b in
  let acc = ref Nat.zero in
  let b256 = Nat.of_int 256 in
  for i = 0 to n - 1 do
    acc := Nat.add (Nat.mul !acc b256) (Nat.of_int (Char.code (Bytes.get b i)))
  done;
  mk 1 !acc

let to_bytes_be ?len t =
  if t.sg < 0 then invalid_arg "Znum.to_bytes_be: negative value";
  let nbytes = (bit_length t + 7) / 8 in
  let out_len = match len with None -> max nbytes 1 | Some l -> l in
  if nbytes > out_len then invalid_arg "Znum.to_bytes_be: value too large for len";
  let out = Bytes.make out_len '\000' in
  let rec go mag pos =
    if not (Nat.is_zero mag) then begin
      let q, r = Nat.divmod_limb mag 256 in
      Bytes.set out pos (Char.chr r);
      go q (pos - 1)
    end
  in
  go t.mag (out_len - 1);
  out
