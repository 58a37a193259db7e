type t = {
  kr_owner : int;
  kr_n : int;
  kr_phases : int;
  offset : int;  (* phase p of this view is phase offset+p of the keys *)
  secret : Crypto.Onetime_sig.secret;
  verifiers : Crypto.Onetime_sig.verifier array;
}

let setup rng ~n ~phases =
  if n <= 0 then invalid_arg "Keyring.setup: n must be positive";
  (* both generators draw from [rng], so the per-owner application
     order must be pinned (ascending) *)
  let pairs = Util.Init.array n (fun owner -> Crypto.Onetime_sig.generate rng ~owner ~phases) in
  let rsa_keys = Util.Init.array n (fun _ -> Crypto.Rsa.generate rng ~bits:512) in
  let verifiers = Array.map snd pairs in
  (* the key exchange: sign each VK array with F, then verify before
     storing it; one digest per party serves both sides *)
  Array.iteri
    (fun i verifier ->
      let digest = Crypto.Onetime_sig.verifier_digest verifier in
      let signature = Crypto.Rsa.sign rsa_keys.(i).sec digest in
      if not (Crypto.Rsa.verify rsa_keys.(i).pub digest ~signature) then
        failwith "Keyring.setup: VK array signature verification failed")
    verifiers;
  (* the verifier array is immutable after setup: all n rings share it *)
  Util.Init.array n (fun owner ->
      let secret, _ = pairs.(owner) in
      { kr_owner = owner; kr_n = n; kr_phases = phases; offset = 0; secret; verifiers })

let owner t = t.kr_owner
let n t = t.kr_n
let phases t = t.kr_phases

let sign t ~phase ~value ~origin =
  Crypto.Onetime_sig.reveal t.secret ~phase:(t.offset + phase) (Message.slot_of ~value ~origin)

let check_with ~hash t ~signer ~phase ~value ~origin ~proof =
  signer >= 0 && signer < t.kr_n
  && phase >= 1 && phase <= t.kr_phases
  && Crypto.Onetime_sig.check_with ~hash t.verifiers.(signer) ~phase:(t.offset + phase)
       (Message.slot_of ~value ~origin) ~proof

let check t ~signer ~phase ~value ~origin ~proof =
  check_with ~hash:Crypto.Sha256.digest t ~signer ~phase ~value ~origin ~proof

let slice t ~offset ~phases =
  if offset < 0 || phases < 1 then invalid_arg "Keyring.slice: bad window";
  if t.offset + offset + phases > Crypto.Onetime_sig.secret_phases t.secret then
    invalid_arg "Keyring.slice: window exceeds the key horizon";
  { t with offset = t.offset + offset; kr_phases = phases }

let check_message_with ~hash t (m : Message.t) =
  check_with ~hash t ~signer:m.sender ~phase:m.phase ~value:m.value ~origin:m.origin
    ~proof:m.proof

let check_message t (m : Message.t) =
  check_message_with ~hash:Crypto.Sha256.digest t m
