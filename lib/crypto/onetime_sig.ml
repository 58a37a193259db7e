type slot = S_zero | S_one | S_bot | S_rand_zero | S_rand_one

let slot_count = 5

let slot_index = function
  | S_zero -> 0
  | S_one -> 1
  | S_bot -> 2
  | S_rand_zero -> 3
  | S_rand_one -> 4

let slot_of_index = function
  | 0 -> S_zero
  | 1 -> S_one
  | 2 -> S_bot
  | 3 -> S_rand_zero
  | 4 -> S_rand_one
  | i -> raise (Util.Codec.Malformed (Printf.sprintf "invalid slot index %d" i))

let key_len = Sha256.digest_size

type secret = { s_owner : int; s_phases : int; sk : bytes array }
type verifier = { v_owner : int; v_phases : int; vk : bytes array }

(* keys for (phase, slot) live at index (phase-1) * slot_count + slot *)
let idx phase slot = ((phase - 1) * slot_count) + slot_index slot

let generate rng ~owner ~phases =
  if phases <= 0 then invalid_arg "Onetime_sig.generate: phases must be positive";
  let total = phases * slot_count in
  (* the closure draws from [rng]: application order must be pinned *)
  let sk = Util.Init.array total (fun _ -> Util.Rng.bytes rng key_len) in
  let vk = Array.map Sha256.digest sk in
  ( { s_owner = owner; s_phases = phases; sk },
    { v_owner = owner; v_phases = phases; vk } )

let owner v = v.v_owner
let phases v = v.v_phases
let secret_phases s = s.s_phases

let reveal secret ~phase slot =
  if phase < 1 || phase > secret.s_phases then
    invalid_arg (Printf.sprintf "Onetime_sig.reveal: phase %d out of range" phase);
  secret.sk.(idx phase slot)

(* [hash] must be extensionally equal to [Sha256.digest]; the per-run
   message store (Core.Msgstore) passes its proof hashes through here so a
   proof broadcast to n receivers is hashed once, not n times. The
   verdict is a pure function of the proof bytes, so a digest cache
   cannot be poisoned across signers, phases or slots. *)
let check_with ~hash verifier ~phase slot ~proof =
  phase >= 1 && phase <= verifier.v_phases
  && Bytes.length proof = key_len
  && Bytes.equal (hash proof) verifier.vk.(idx phase slot)

let check verifier ~phase slot ~proof =
  check_with ~hash:Sha256.digest verifier ~phase slot ~proof

let verifier_to_bytes v =
  let w = Util.Codec.W.create ~capacity:(16 + (Array.length v.vk * key_len)) () in
  Util.Codec.W.u16 w v.v_owner;
  Util.Codec.W.u32 w v.v_phases;
  Array.iter (Util.Codec.W.bytes w) v.vk;
  Util.Codec.W.contents w

let verifier_of_bytes b =
  let r = Util.Codec.R.of_bytes b in
  let v_owner = Util.Codec.R.u16 r in
  let v_phases = Util.Codec.R.u32 r in
  if v_phases <= 0 || v_phases > 1_000_000 then
    raise (Util.Codec.Malformed "verifier: implausible phase count");
  (* the closure advances the reader: application order must be pinned *)
  let vk = Util.Init.array (v_phases * slot_count) (fun _ -> Util.Codec.R.bytes r key_len) in
  Util.Codec.R.expect_end r;
  { v_owner; v_phases; vk }

let verifier_digest v = Sha256.digest (verifier_to_bytes v)
