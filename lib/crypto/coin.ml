type params = {
  group : Prime.schnorr_group;
  thresh : int;
  vks : Znum.t array; (* vks.(i) = g^{x_i} mod p *)
}

type key_share = { owner : int; x : Znum.t }

type share = {
  sh_owner : int;
  value : Znum.t; (* H2(name)^{x_i} *)
  (* Chaum–Pedersen DLEQ proof: (challenge c, response z) *)
  c : Znum.t;
  z : Znum.t;
}

let threshold p = p.thresh

let setup rng ~n ~threshold ?(pbits = 512) ?(qbits = 160) () =
  if threshold < 1 || threshold > n then invalid_arg "Coin.setup: need 1 <= threshold <= n";
  let group = Prime.schnorr_group rng ~pbits ~qbits in
  let x = Prime.random_below rng group.q in
  let shares = Shamir.deal rng ~q:group.q ~secret:x ~threshold ~n in
  let key_shares =
    Array.of_list (List.map (fun (s : Shamir.share) -> { owner = s.index - 1; x = s.value }) shares)
  in
  let vks = Array.map (fun ks -> Znum.mod_pow ~base:group.g ~exp:ks.x ~m:group.p) key_shares in
  ({ group; thresh = threshold; vks }, key_shares)

(* Hash a name onto the order-q subgroup: interpret H(name||ctr) as an
   integer mod p and raise to (p-1)/q; retry on the identity. *)
let hash_to_group (g : Prime.schnorr_group) name =
  let cofactor = Znum.div (Znum.sub g.p Znum.one) g.q in
  let rec go ctr =
    let digest = Sha256.digest_string (Printf.sprintf "coin-base|%d|%s" ctr name) in
    let h = Znum.emod (Znum.of_bytes_be digest) g.p in
    let candidate = Znum.mod_pow ~base:h ~exp:cofactor ~m:g.p in
    if Znum.equal candidate Znum.one then go (ctr + 1) else candidate
  in
  go 0

let challenge_of ~g ~gbar ~vk ~value ~a ~b ~q =
  let encode z = Util.Codec.hex (Znum.to_bytes_be z) in
  let digest =
    Sha256.digest_string
      (String.concat "|" [ "dleq"; encode g; encode gbar; encode vk; encode value; encode a; encode b ])
  in
  Znum.emod (Znum.of_bytes_be digest) q

let create_share params ks ~name =
  let { group; _ } = params in
  let gbar = hash_to_group group name in
  let value = Znum.mod_pow ~base:gbar ~exp:ks.x ~m:group.p in
  (* DLEQ(g, vk_i; gbar, value): commitments with a nonce derived
     deterministically from the secret and the name (à la RFC 6979, so no
     fresh randomness is needed at share time) *)
  let nonce =
    let digest =
      Sha256.digest_string
        (Printf.sprintf "dleq-nonce|%s|%s" (Util.Codec.hex (Znum.to_bytes_be ks.x)) name)
    in
    Znum.emod (Znum.of_bytes_be digest) group.q
  in
  let a = Znum.mod_pow ~base:group.g ~exp:nonce ~m:group.p in
  let b = Znum.mod_pow ~base:gbar ~exp:nonce ~m:group.p in
  let c =
    challenge_of ~g:group.g ~gbar ~vk:params.vks.(ks.owner) ~value ~a ~b ~q:group.q
  in
  let z = Znum.emod (Znum.add nonce (Znum.mul c ks.x)) group.q in
  { sh_owner = ks.owner; value; c; z }

let share_owner s = s.sh_owner

let verify_share params ~name share =
  let { group; vks; _ } = params in
  if share.sh_owner < 0 || share.sh_owner >= Array.length vks then false
  else if Znum.sign share.value <= 0 || Znum.compare share.value group.p >= 0 then false
  else begin
    let gbar = hash_to_group group name in
    let vk = vks.(share.sh_owner) in
    (* recompute commitments: a = g^z * vk^{-c}, b = gbar^z * value^{-c} *)
    let inv_exp base =
      match Znum.mod_inv base ~m:group.p with
      | None -> None
      | Some inv -> Some (Znum.mod_pow ~base:inv ~exp:share.c ~m:group.p)
    in
    match (inv_exp vk, inv_exp share.value) with
    | Some vk_neg_c, Some val_neg_c ->
        let a = Znum.emod (Znum.mul (Znum.mod_pow ~base:group.g ~exp:share.z ~m:group.p) vk_neg_c) group.p in
        let b = Znum.emod (Znum.mul (Znum.mod_pow ~base:gbar ~exp:share.z ~m:group.p) val_neg_c) group.p in
        Znum.equal (challenge_of ~g:group.g ~gbar ~vk ~value:share.value ~a ~b ~q:group.q) share.c
    | _ -> false
  end

let combine params ~name shares =
  let valid =
    List.filter (verify_share params ~name) shares
    |> List.sort_uniq (fun s1 s2 -> compare s1.sh_owner s2.sh_owner)
  in
  if List.length valid < params.thresh then None
  else begin
    let subset = List.filteri (fun i _ -> i < params.thresh) valid in
    let indices = List.map (fun s -> s.sh_owner + 1) subset in
    let lambdas = Shamir.lagrange_at_zero ~q:params.group.q indices in
    let combined =
      List.fold_left
        (fun acc s ->
          let lambda = List.assoc (s.sh_owner + 1) lambdas in
          Znum.emod (Znum.mul acc (Znum.mod_pow ~base:s.value ~exp:lambda ~m:params.group.p))
            params.group.p)
        Znum.one subset
    in
    let digest = Sha256.digest (Znum.to_bytes_be combined) in
    Some (Char.code (Bytes.get digest (Bytes.length digest - 1)) land 1)
  end

let share_to_bytes s =
  let w = Util.Codec.W.create () in
  Util.Codec.W.u16 w s.sh_owner;
  Util.Codec.W.bytes_lp w (Znum.to_bytes_be s.value);
  Util.Codec.W.bytes_lp w (Znum.to_bytes_be s.c);
  Util.Codec.W.bytes_lp w (Znum.to_bytes_be s.z);
  Util.Codec.W.contents w

let share_of_bytes b =
  let r = Util.Codec.R.of_bytes b in
  let sh_owner = Util.Codec.R.u16 r in
  let value = Znum.of_bytes_be (Util.Codec.R.bytes_lp r) in
  let c = Znum.of_bytes_be (Util.Codec.R.bytes_lp r) in
  let z = Znum.of_bytes_be (Util.Codec.R.bytes_lp r) in
  Util.Codec.R.expect_end r;
  { sh_owner; value; c; z }
