(* FIPS 180-4. Words are native ints masked to 32 bits. *)

let digest_size = 32
let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

type ctx = {
  h : int array;           (* 8 state words *)
  block : Bytes.t;         (* 64-byte block buffer *)
  mutable block_len : int; (* bytes buffered *)
  mutable total : int;     (* total message bytes *)
  w : int array;           (* 64-entry message schedule, reused *)
  mutable finalized : bool;
}

let init () =
  {
    h = Array.copy iv;
    block = Bytes.create 64;
    block_len = 0;
    total = 0;
    w = Array.make 64 0;
    finalized = false;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* unsafe accessors: every index below is bounded by construction
   (0..15 over a >= off+64 byte block, 0..63 over the 64-entry
   schedule), and this loop dominates the simulator's host CPU time *)
let compress_core h w block off =
  for i = 0 to 15 do
    let j = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block j) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (j + 3)))
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) in
    let w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let temp1 =
      (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let compress ctx block off = compress_core ctx.h ctx.w block off

let emit h =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
  done;
  out

let update ctx data =
  if ctx.finalized then invalid_arg "Sha256.update: context already finalized";
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* fill a partial block first *)
  if ctx.block_len > 0 then begin
    let take = min (64 - ctx.block_len) len in
    Bytes.blit data 0 ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := take;
    if ctx.block_len = 64 then begin
      compress ctx ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos ctx.block 0 (len - !pos);
    ctx.block_len <- len - !pos
  end

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finalized <- true;
  let bitlen = ctx.total * 8 in
  (* padding: 0x80, zeros, 64-bit big-endian length *)
  let pad_len =
    let r = (ctx.total + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail (pad_len + i) (Char.chr ((bitlen lsr (8 * (7 - i))) land 0xFF))
  done;
  ctx.finalized <- false;
  update ctx tail;
  ctx.finalized <- true;
  assert (ctx.block_len = 0);
  emit ctx.h

(* Single-block fast path. A message of <= 55 bytes pads into exactly
   one 64-byte block (data, 0x80, zeros, 64-bit bit length), so the
   digest is one [compress_core] over domain-local scratch: no ctx, no
   per-call allocation beyond the 32-byte output. This covers the
   dominant call on the simulator's critical path — hashing 32-byte
   one-time-signature proofs ({!Onetime_sig.check}). *)
let scratch : (int array * int array * Bytes.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Array.make 8 0, Array.make 64 0, Bytes.create 64))

let digest data =
  let len = Bytes.length data in
  if len <= 55 then begin
    let h, w, block = Domain.DLS.get scratch in
    Array.blit iv 0 h 0 8;
    Bytes.blit data 0 block 0 len;
    Bytes.unsafe_set block len '\x80';
    (* zero len+1 .. 63, then write the bit length (< 2^16 here) into
       the last two bytes; bytes 56..61 of the length field stay zero *)
    Bytes.fill block (len + 1) (63 - len) '\000';
    let bits = len * 8 in
    Bytes.unsafe_set block 62 (Char.unsafe_chr ((bits lsr 8) land 0xFF));
    Bytes.unsafe_set block 63 (Char.unsafe_chr (bits land 0xFF));
    compress_core h w block 0;
    emit h
  end
  else begin
    let ctx = init () in
    update ctx data;
    finalize ctx
  end

let digest_string s = digest (Bytes.of_string s)

let digest_concat parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex_digest_string s = Util.Codec.hex (digest_string s)
