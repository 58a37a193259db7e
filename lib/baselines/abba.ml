type behavior = Correct | Attacker

type group_keys = {
  gk_n : int;
  gk_f : int;
  rsa : Crypto.Rsa.keypair array;
  pubs : Crypto.Rsa.public array;
  coin_params : Crypto.Coin.params;
  coin_keys : Crypto.Coin.key_share array;
}

let setup_keys rng ~n ~f =
  if n <= 3 * f then invalid_arg "Abba.setup_keys: need n > 3f";
  (* the generator draws from [rng]: application order must be pinned *)
  let rsa = Util.Init.array n (fun _ -> Crypto.Rsa.generate rng ~bits:512) in
  let pubs = Array.map (fun (kp : Crypto.Rsa.keypair) -> kp.pub) rsa in
  let coin_params, coin_keys = Crypto.Coin.setup rng ~n ~threshold:(f + 1) () in
  { gk_n = n; gk_f = f; rsa; pubs; coin_params; coin_keys }

(* signing strings *)
let pre_string ~round ~value = Bytes.of_string (Printf.sprintf "pre|%d|%d" round value)
let main_string ~round ~mv = Bytes.of_string (Printf.sprintf "main|%d|%d" round mv)
let coin_name ~round = Printf.sprintf "coin|%d" round

let abstain = 2

type prevote_just =
  | J_initial                               (* round 1 *)
  | J_hard of Crypto.Multisig.t             (* n-f sigs over pre|r-1|b *)
  | J_coin of Crypto.Multisig.t * Crypto.Coin.share list
      (* n-f sigs over main|r-1|abstain plus enough coin shares *)

type message =
  | Prevote of { round : int; value : int; sig_ : bytes; just : prevote_just }
  | Mainvote of {
      round : int;
      mv : int;  (* 0, 1, or abstain *)
      sig_ : bytes;
      hard_just : Crypto.Multisig.t option;      (* when mv is 0/1 *)
      conflict : ((int * bytes) * (int * bytes)) option;  (* when abstain *)
      share : Crypto.Coin.share;
    }

(* --- wire format --------------------------------------------------------- *)

let encode_shares w shares =
  Util.Codec.W.u16 w (List.length shares);
  List.iter (fun s -> Util.Codec.W.bytes_lp w (Crypto.Coin.share_to_bytes s)) shares

let decode_shares r =
  let count = Util.Codec.R.u16 r in
  (* the closure advances the reader: application order must be pinned *)
  Util.Init.list count (fun _ -> Crypto.Coin.share_of_bytes (Util.Codec.R.bytes_lp r))

let encode message =
  let w = Util.Codec.W.create ~capacity:256 () in
  (match message with
  | Prevote { round; value; sig_; just } ->
      Util.Codec.W.u8 w 0;
      Util.Codec.W.varint w round;
      Util.Codec.W.u8 w value;
      Util.Codec.W.bytes_lp w sig_;
      (match just with
      | J_initial -> Util.Codec.W.u8 w 0
      | J_hard ms ->
          Util.Codec.W.u8 w 1;
          Util.Codec.W.bytes_lp w (Crypto.Multisig.to_bytes ms)
      | J_coin (ms, shares) ->
          Util.Codec.W.u8 w 2;
          Util.Codec.W.bytes_lp w (Crypto.Multisig.to_bytes ms);
          encode_shares w shares)
  | Mainvote { round; mv; sig_; hard_just; conflict; share } ->
      Util.Codec.W.u8 w 1;
      Util.Codec.W.varint w round;
      Util.Codec.W.u8 w mv;
      Util.Codec.W.bytes_lp w sig_;
      (match (hard_just, conflict) with
      | Some ms, None ->
          Util.Codec.W.u8 w 1;
          Util.Codec.W.bytes_lp w (Crypto.Multisig.to_bytes ms)
      | None, Some ((s0, sig0), (s1, sig1)) ->
          Util.Codec.W.u8 w 2;
          Util.Codec.W.u16 w s0;
          Util.Codec.W.bytes_lp w sig0;
          Util.Codec.W.u16 w s1;
          Util.Codec.W.bytes_lp w sig1
      | _, _ -> raise (Util.Codec.Malformed "mainvote justification shape"));
      Util.Codec.W.bytes_lp w (Crypto.Coin.share_to_bytes share));
  Util.Codec.W.contents w

let decode raw =
  let r = Util.Codec.R.of_bytes raw in
  let tag = Util.Codec.R.u8 r in
  let round = Util.Codec.R.varint r in
  if round < 1 then raise (Util.Codec.Malformed "round < 1");
  match tag with
  | 0 ->
      let value = Util.Codec.R.u8 r in
      let sig_ = Util.Codec.R.bytes_lp r in
      let just =
        match Util.Codec.R.u8 r with
        | 0 -> J_initial
        | 1 -> J_hard (Crypto.Multisig.of_bytes (Util.Codec.R.bytes_lp r))
        | 2 ->
            let ms = Crypto.Multisig.of_bytes (Util.Codec.R.bytes_lp r) in
            let shares = decode_shares r in
            J_coin (ms, shares)
        | _ -> raise (Util.Codec.Malformed "prevote justification tag")
      in
      Util.Codec.R.expect_end r;
      Prevote { round; value; sig_; just }
  | 1 ->
      let mv = Util.Codec.R.u8 r in
      let sig_ = Util.Codec.R.bytes_lp r in
      let hard_just, conflict =
        match Util.Codec.R.u8 r with
        | 1 -> (Some (Crypto.Multisig.of_bytes (Util.Codec.R.bytes_lp r)), None)
        | 2 ->
            let s0 = Util.Codec.R.u16 r in
            let sig0 = Util.Codec.R.bytes_lp r in
            let s1 = Util.Codec.R.u16 r in
            let sig1 = Util.Codec.R.bytes_lp r in
            (None, Some ((s0, sig0), (s1, sig1)))
        | _ -> raise (Util.Codec.Malformed "mainvote justification tag")
      in
      let share = Crypto.Coin.share_of_bytes (Util.Codec.R.bytes_lp r) in
      Util.Codec.R.expect_end r;
      Mainvote { round; mv; sig_; hard_just; conflict; share }
  | _ -> raise (Util.Codec.Malformed "abba message tag")

(* --- protocol ------------------------------------------------------------ *)

type round_state = {
  prevotes : (int, int * bytes) Hashtbl.t;   (* sender -> (value, sig) *)
  mainvotes : (int, int * bytes) Hashtbl.t;  (* sender -> (mv, sig) *)
  mutable hard_ms : (int * Crypto.Multisig.t) option;
      (* a reusable (value, n-f multisig over pre|r|value) justification *)
  shares : (int, Crypto.Coin.share) Hashtbl.t;  (* verified coin shares *)
}

type stage = Wait_prevotes | Wait_mainvotes

type t = {
  node : Net.Node.t;
  link : Net.Rlink.t;
  keys : group_keys;
  behavior : behavior;
  mutable round_i : int;
  mutable stage : stage;
  mutable decision : int option;
  rounds : (int, round_state) Hashtbl.t;
  mutable decide_cb : (value:int -> round:int -> unit) option;
  mutable started : bool;
  mutable initial : int;
}

let id t = Net.Node.id t.node
let decision t = t.decision
let round t = t.round_i
let on_decide t f = t.decide_cb <- Some f
let n t = t.keys.gk_n
let f t = t.keys.gk_f
let quorum t = n t - f t

let round_state t round =
  match Hashtbl.find_opt t.rounds round with
  | Some rs -> rs
  | None ->
      let rs =
        {
          prevotes = Hashtbl.create 8;
          mainvotes = Hashtbl.create 8;
          hard_ms = None;
          shares = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.rounds round rs;
      rs

(* Real-computation memoization: the same signature, multisignature or
   coin share is verified by up to n receivers; the mathematical result
   is identical, so the cryptography runs once per distinct input. The
   *simulated* CPU cost is still charged for every verification — only
   the host's wall-clock time is saved. *)
(* The caches are domain-local: verification results are pure functions
   of their inputs, so parallel pool workers recompute identical values
   instead of racing on shared tables. *)
let verify_cache_key : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let share_cache_key : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let verify_cache () = Domain.DLS.get verify_cache_key
let share_cache () = Domain.DLS.get share_cache_key

let cache_guard table = if Hashtbl.length table > 200_000 then Hashtbl.reset table

let cached table key compute =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      cache_guard table;
      let v = compute () in
      Hashtbl.add table key v;
      v

let my_sign t msg =
  Net.Node.charge t.node Net.Cost.rsa_sign;
  Crypto.Rsa.sign t.keys.rsa.(id t).sec msg

let verify_sig t ~signer msg ~signature =
  Net.Node.charge t.node Net.Cost.rsa_verify;
  signer >= 0 && signer < n t
  &&
  let key =
    Printf.sprintf "s|%d|%s|%s" signer (Bytes.to_string msg) (Bytes.to_string signature)
  in
  cached (verify_cache ()) key (fun () -> Crypto.Rsa.verify t.keys.pubs.(signer) msg ~signature)

let verify_ms t ~msg ~k ms =
  let count = Crypto.Multisig.count ms in
  Net.Node.charge t.node (float_of_int count *. Net.Cost.rsa_verify);
  let key =
    Printf.sprintf "m|%d|%s|%s" k (Bytes.to_string msg)
      (Bytes.to_string (Crypto.Multisig.to_bytes ms))
  in
  cached (verify_cache ()) key (fun () -> Crypto.Multisig.verify ~keys:t.keys.pubs ~msg ~k ms)

let verify_share t ~round share =
  Net.Node.charge t.node Net.Cost.coin_share_verify;
  let key =
    Printf.sprintf "c|%d|%s" round (Bytes.to_string (Crypto.Coin.share_to_bytes share))
  in
  cached (share_cache ()) key (fun () ->
      Crypto.Coin.verify_share t.keys.coin_params ~name:(coin_name ~round) share)

(* The attacker of §7.2 floods well-formed messages whose signatures and
   justifications do not verify. *)
let corrupt sig_ =
  let b = Bytes.copy sig_ in
  if Bytes.length b > 0 then
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
  b

let proto = [ ("proto", "abba") ]
let msgs_sent = Obs.Metrics.counter ~labels:proto "proto.msgs_sent"
let decisions = Obs.Metrics.counter ~labels:proto "proto.decisions"
let coin_flips = Obs.Metrics.counter ~labels:proto "proto.coin_flips"
let round_changes = Obs.Metrics.counter ~labels:proto "proto.round_changes"

let send_to_all t message =
  let raw = encode message in
  for dst = 0 to n t - 1 do
    if dst <> id t then begin
      Obs.Metrics.incr msgs_sent;
      Net.Rlink.send t.link ~dst raw
    end
  done

(* --- sending ------------------------------------------------------------- *)

let make_share t ~round =
  Net.Node.charge t.node Net.Cost.coin_share_create;
  Crypto.Coin.create_share t.keys.coin_params t.keys.coin_keys.(id t)
    ~name:(coin_name ~round)

let rec send_prevote t ~round ~value ~just =
  let sig_ = my_sign t (pre_string ~round ~value) in
  let sig_ = if t.behavior = Attacker then corrupt sig_ else sig_ in
  let message = Prevote { round; value; sig_; just } in
  send_to_all t message;
  (* local copy *)
  if t.behavior = Correct then accept_prevote t ~sender:(id t) ~round ~value ~sig_;
  try_advance t

and send_mainvote t ~round ~mv ~hard_just ~conflict =
  let sig_ = my_sign t (main_string ~round ~mv) in
  let sig_ = if t.behavior = Attacker then corrupt sig_ else sig_ in
  let share = make_share t ~round in
  let message = Mainvote { round; mv; sig_; hard_just; conflict; share } in
  send_to_all t message;
  if t.behavior = Correct then begin
    accept_mainvote t ~sender:(id t) ~round ~mv ~sig_ ~hard_just ~share
  end;
  try_advance t

(* --- receiving ----------------------------------------------------------- *)

and accept_prevote t ~sender ~round ~value ~sig_ =
  let rs = round_state t round in
  if not (Hashtbl.mem rs.prevotes sender) then
    Hashtbl.replace rs.prevotes sender (value, sig_)

and accept_mainvote t ~sender ~round ~mv ~sig_ ~hard_just ~share =
  let rs = round_state t round in
  if not (Hashtbl.mem rs.mainvotes sender) then begin
    Hashtbl.replace rs.mainvotes sender (mv, sig_);
    Hashtbl.replace rs.shares sender share;
    match (mv, hard_just, rs.hard_ms) with
    | (0 | 1), Some ms, None -> rs.hard_ms <- Some (mv, ms)
    | _, _, _ -> ()
  end

and handle_message t ~src message =
  match message with
  | Prevote { round; value; sig_; just } ->
      if (value = 0 || value = 1)
         && verify_sig t ~signer:src (pre_string ~round ~value) ~signature:sig_
         && prevote_justified t ~round ~value ~just
      then begin
        accept_prevote t ~sender:src ~round ~value ~sig_;
        try_advance t
      end
  | Mainvote { round; mv; sig_; hard_just; conflict; share } ->
      let sig_ok =
        (mv = 0 || mv = 1 || mv = abstain)
        && verify_sig t ~signer:src (main_string ~round ~mv) ~signature:sig_
      in
      let just_ok =
        sig_ok
        &&
        match (mv, hard_just, conflict) with
        | (0 | 1), Some ms, None ->
            verify_ms t ~msg:(pre_string ~round ~value:mv) ~k:(quorum t) ms
        | _, None, Some ((s0, sig0), (s1, sig1)) ->
            mv = abstain && s0 <> s1
            && verify_sig t ~signer:s0 (pre_string ~round ~value:0) ~signature:sig0
            && verify_sig t ~signer:s1 (pre_string ~round ~value:1) ~signature:sig1
        | _, _, _ -> false
      in
      if just_ok && verify_share t ~round share then begin
        accept_mainvote t ~sender:src ~round ~mv ~sig_ ~hard_just ~share;
        try_advance t
      end

and prevote_justified t ~round ~value ~just =
  match just with
  | J_initial -> round = 1
  | J_hard ms ->
      round > 1 && verify_ms t ~msg:(pre_string ~round:(round - 1) ~value) ~k:(quorum t) ms
  | J_coin (ms, shares) ->
      round > 1
      && verify_ms t ~msg:(main_string ~round:(round - 1) ~mv:abstain) ~k:(quorum t) ms
      &&
      let name = coin_name ~round:(round - 1) in
      let valid_shares =
        List.filter (fun s -> verify_share t ~round:(round - 1) s) shares
      in
      Net.Node.charge t.node
        (Net.Cost.coin_combine ~shares:(Crypto.Coin.threshold t.keys.coin_params));
      Crypto.Coin.combine t.keys.coin_params ~name valid_shares = Some value

(* --- state machine -------------------------------------------------------- *)

and try_advance t =
  let rs = round_state t t.round_i in
  match t.stage with
  | Wait_prevotes ->
      if Hashtbl.length rs.prevotes >= quorum t then begin
        let values = Hashtbl.fold (fun _ (v, _) acc -> v :: acc) rs.prevotes [] in
        let all_equal b = List.for_all (fun v -> v = b) values in
        t.stage <- Wait_mainvotes;
        if all_equal 0 || all_equal 1 then begin
          let b = List.hd values in
          let contributions =
            Hashtbl.fold
              (fun sender (v, sig_) acc -> if v = b then (sender, sig_) :: acc else acc)
              rs.prevotes []
          in
          let ms = Crypto.Multisig.create contributions in
          send_mainvote t ~round:t.round_i ~mv:b ~hard_just:(Some ms) ~conflict:None
        end
        else begin
          let find_sig b =
            Hashtbl.fold
              (fun sender (v, sig_) acc ->
                match acc with Some _ -> acc | None -> if v = b then Some (sender, sig_) else None)
              rs.prevotes None
          in
          match (find_sig 0, find_sig 1) with
          | Some c0, Some c1 ->
              send_mainvote t ~round:t.round_i ~mv:abstain ~hard_just:None
                ~conflict:(Some (c0, c1))
          | _, _ -> assert false (* mixed values imply both present *)
        end
      end
  | Wait_mainvotes ->
      if Hashtbl.length rs.mainvotes >= quorum t then begin
        let mvs = Hashtbl.fold (fun _ (mv, _) acc -> mv :: acc) rs.mainvotes [] in
        let all_equal b = List.for_all (fun mv -> mv = b) mvs in
        let next_round = t.round_i + 1 in
        let next_value, next_just =
          if all_equal 0 || all_equal 1 then begin
            let b = List.hd mvs in
            if t.decision = None then begin
              t.decision <- Some b;
              Obs.Metrics.incr decisions;
              if Obs.Trace2.enabled () then
                Obs.Trace2.emit
                  ~time:(Net.Engine.now (Net.Node.engine t.node))
                  ~node:(id t) ~layer:"abba" ~label:"decide"
                  [ ("value", Obs.Trace2.I b); ("round", Obs.Trace2.I t.round_i) ];
              match t.decide_cb with
              | Some cb -> cb ~value:b ~round:t.round_i
              | None -> ()
            end;
            let just =
              match rs.hard_ms with
              | Some (v, ms) when v = b -> J_hard ms
              | Some _ | None -> prevote_ms_of t rs b
            in
            (b, just)
          end
          else begin
            match List.find_opt (fun mv -> mv = 0 || mv = 1) mvs with
            | Some b ->
                let just =
                  match rs.hard_ms with
                  | Some (v, ms) when v = b -> J_hard ms
                  | Some _ | None -> prevote_ms_of t rs b
                in
                (b, just)
            | None ->
                (* all abstained: flip the threshold coin *)
                Obs.Metrics.incr coin_flips;
                let shares = Hashtbl.fold (fun _ s acc -> s :: acc) rs.shares [] in
                Net.Node.charge t.node
                  (Net.Cost.coin_combine
                     ~shares:(Crypto.Coin.threshold t.keys.coin_params));
                let name = coin_name ~round:t.round_i in
                let bit =
                  match Crypto.Coin.combine t.keys.coin_params ~name shares with
                  | Some bit -> bit
                  | None -> Util.Rng.coin (Net.Node.rng t.node)
                in
                (bit, J_coin (abstain_ms_of rs, shares))
          end
        in
        t.round_i <- next_round;
        Obs.Metrics.incr round_changes;
        if Obs.Trace2.enabled () then
          Obs.Trace2.emit
            ~time:(Net.Engine.now (Net.Node.engine t.node))
            ~node:(id t) ~layer:"abba" ~label:"round"
            [ ("round", Obs.Trace2.I next_round) ];
        t.stage <- Wait_prevotes;
        send_prevote t ~round:next_round ~value:next_value ~just:next_just
      end

and prevote_ms_of _t rs b =
  (* multisig over pre|r|b from our collected pre-votes *)
  let contributions =
    Hashtbl.fold
      (fun sender (v, sig_) acc -> if v = b then (sender, sig_) :: acc else acc)
      rs.prevotes []
  in
  J_hard (Crypto.Multisig.create contributions)

and abstain_ms_of rs =
  (* multisig over main|r|abstain from the collected main-votes *)
  Crypto.Multisig.create
    (Hashtbl.fold
       (fun sender (mv, sig_) acc -> if mv = abstain then (sender, sig_) :: acc else acc)
       rs.mainvotes [])

let create node ~keys ?(behavior = Correct) ?(port = 800) ~proposal () =
  if proposal <> 0 && proposal <> 1 then invalid_arg "Abba.create: binary proposals only";
  let link =
    Net.Rlink.create (Net.Node.engine node) (Net.Node.datagram node) (Net.Node.cpu node)
      ~auth:false ~port ()
  in
  {
    node;
    link;
    keys;
    behavior;
    round_i = 1;
    stage = Wait_prevotes;
    decision = None;
    rounds = Hashtbl.create 8;
    decide_cb = None;
    started = false;
    initial = proposal;
  }

let start t =
  if not t.started then begin
    t.started <- true;
    Net.Rlink.on_receive t.link (fun ~src raw ->
        match decode raw with
        | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
        | message -> handle_message t ~src message);
    send_prevote t ~round:1 ~value:t.initial ~just:J_initial
  end
