(* Per-run content-addressed message store: the one table the Turquois
   receive path keys on.

   A broadcast frame reaches n receivers, and explicit validation makes
   every justified frame re-ship messages the receivers mostly hold
   already. Every distinct message is therefore stored once per run,
   under a compact 1-based index, together with its 8-byte content
   digest (the address compact [Ref] entries name; computed when the
   message is first stored) and the SHA-256 hash of its proof (computed
   on the first authenticity check). Three consumers share the index:

   - [decode] memoizes the last payload it decoded and that payload's
     frame of indices. The n-1 deliveries of one transmission arrive
     back to back and carry one payload, so all but the first return
     the very frame; any other payload is decoded afresh, interned and
     memoized in its place. The memo compares the exact bytes, so a
     forgery or an equivocating unicast that differs anywhere from the
     memoized payload costs its own decode. Malformed payloads raise
     before reaching it.
   - A compact reference decodes to its digest's candidate cell: the
     one cell per digest that [intern] appends every matching index
     to, created empty when a frame names a digest no stored message
     has yet. Resolving reads the cell instead of hashing the digest.
   - [check] evaluates the one-time-signature verdict afresh per call
     against the caller's keyring, memoizing only the proof hash: the
     verdict [Bytes.equal (H proof) vk.(signer, phase, slot)] never
     shares an entry between signers, phases or slots, so the memo is
     unpoisonable by construction.
   - [Vset] rows hold indices, so the same justification message
     re-embedded in many frames and V sets is one stored copy.

   Only host time changes: [Net.Cost] still charges every receiver for
   its own decode and checks. Ref resolution stays per receiver
   ([resolve] filters the digest's candidates through the caller's own
   authenticated set), since a store shared by every node of a run
   knows messages a given receiver has never authenticated.

   The store is domain-local and re-bound (not reset in place) at every
   run boundary: a [Vset] captures the store object at creation time,
   so sets that outlive their run scope — the model checker clones
   machines across enumeration branches — keep resolving against the
   store they were built on while new runs start from an empty one.
   Indices are never compared across stores. Nothing is ever removed
   inside a run.

   One store can be shared by machines stepping on several domains:
   the model checker clones a run's machines into pool workers. Every
   table access and the memo slot therefore hold the store's mutex.
   [get] reads without it: a domain only ever holds an index it
   received from the store under the mutex (or before the workers
   started), and the message and digest behind an index never change.
   [resolve] reads a candidate cell without it for the same reason: an
   index the caller's filter accepts was handed to the caller under the
   mutex, after the append that put it in the cell. *)

(* Every decode that misses the memo builds a frame, and at n=128 a
   frame carries about 140 justification entries. Its array holds the
   entries each slot and cell build once, so a miss allocates one word
   per entry and no boxes. *)
type candidates = {
  cdigest : bytes;
  mutable idxs : int list;  (* ascending *)
  unknown : entry;  (* [Unknown] of this cell *)
}

and entry = Stored of int | Unknown of candidates

type frame = { msg : int; just : entry array }

type slot = {
  m : Message.t;
  stored : entry;  (* [Stored] of this slot's index *)
  digest : bytes;
  mutable proof_hash : bytes;  (* empty until the first check *)
  mutable member : bool;  (* admitted to some V set *)
}

type t = {
  mutable slots : slot array;
  mutable len : int;
  mutable members : int;
  index : (Message.t, int) Hashtbl.t;
      (* structural hash/equality cover every field including the proof
         bytes, so two messages differing anywhere intern separately *)
  by_digest : (bytes, candidates) Hashtbl.t;
  mutable last : (bytes * frame) option;
      (* a private copy of the payload decoded last, and its frame *)
  lock : Mutex.t;
}

let create () =
  {
    slots = [||];
    len = 0;
    members = 0;
    index = Hashtbl.create 256;
    by_digest = Hashtbl.create 256;
    last = None;
    lock = Mutex.create ();
  }

let size t = t.members

let slot t idx =
  if idx < 1 || idx > t.len then invalid_arg "Msgstore: index out of range";
  t.slots.(idx - 1)

let get t idx = (slot t idx).m
let digest t idx = (slot t idx).digest
let candidates_digest c = c.cdigest

(* The caller holds the lock. *)
let cell_locked t d =
  match Hashtbl.find_opt t.by_digest d with
  | Some c -> c
  | None ->
      let rec c = { cdigest = d; idxs = []; unknown = Unknown c } in
      Hashtbl.add t.by_digest d c;
      c

(* Indices are 1-based so that 0 stays free as the "empty slot" marker
   of the flat Vset rows. The caller holds the lock. *)
let intern_locked t (m : Message.t) =
  match Hashtbl.find_opt t.index m with
  | Some idx -> idx
  | None ->
      let s =
        {
          m;
          stored = Stored (t.len + 1);
          digest = Message.msg_digest m;
          proof_hash = Bytes.empty;
          member = false;
        }
      in
      if t.len = Array.length t.slots then begin
        let slots = Array.make (max 64 (2 * t.len)) s in
        Array.blit t.slots 0 slots 0 t.len;
        t.slots <- slots
      end;
      t.slots.(t.len) <- s;
      t.len <- t.len + 1;
      Hashtbl.add t.index m t.len;
      let c = cell_locked t s.digest in
      c.idxs <- c.idxs @ [ t.len ];
      t.len

(* The hot entry points lock and unlock by hand instead of through
   [Mutex.protect]: their bodies cannot raise, and the closure
   [protect] takes would be allocated on every delivery. *)
let intern t m =
  Mutex.lock t.lock;
  let idx = intern_locked t m in
  Mutex.unlock t.lock;
  idx

let admit t m =
  Mutex.lock t.lock;
  let idx = intern_locked t m in
  let s = t.slots.(idx - 1) in
  if not s.member then begin
    s.member <- true;
    t.members <- t.members + 1
  end;
  Mutex.unlock t.lock;
  idx

let rec first_known known k = function
  | [] -> 0
  | idx :: rest -> if known k idx then idx else first_known known k rest

let resolve known k c = first_known known k c.idxs

let memo_hits = Obs.Metrics.counter "codec.decode.memo_hit"
let memo_misses = Obs.Metrics.counter "codec.decode.memo_miss"
let verify_hits = Obs.Metrics.counter "crypto.verify.cache_hit"
let verify_misses = Obs.Metrics.counter "crypto.verify.cache_miss"

let decode_unprofiled t payload =
  Mutex.lock t.lock;
  let last = t.last in
  Mutex.unlock t.lock;
  match last with
  | Some (key, fr) when Bytes.equal key payload ->
      Obs.Metrics.incr memo_hits;
      fr
  | Some _ | None ->
      (* malformed payloads raise out before reaching the memo *)
      let wi = Message.decode_wire payload in
      let fr =
        Mutex.protect t.lock (fun () ->
            let entry = function
              | Message.Full m ->
                  let idx = intern_locked t m in
                  t.slots.(idx - 1).stored
              | Message.Ref d -> (cell_locked t d).unknown
            in
            let just = Array.of_list (List.map entry wi.Message.wjust) in
            let fr = { msg = intern_locked t wi.Message.wmsg; just } in
            (* key copied defensively: the memo must never alias a
               buffer a caller could later mutate *)
            t.last <- Some (Bytes.copy payload, fr);
            fr)
      in
      Obs.Metrics.incr memo_misses;
      fr

(* profiled wrapper; a malformed payload raises out without a sample *)
let decode t payload =
  let sp = Obs.Prof.start () in
  let fr = decode_unprofiled t payload in
  Obs.Prof.stop Obs.Prof.decode sp;
  fr

let proof_hash s =
  if Bytes.length s.proof_hash > 0 then begin
    Obs.Metrics.incr verify_hits;
    s.proof_hash
  end
  else begin
    let h = Crypto.Sha256.digest s.m.proof in
    Obs.Metrics.incr verify_misses;
    s.proof_hash <- h;
    h
  end

let check t keyring idx =
  let sp = Obs.Prof.start () in
  let s = slot t idx in
  let ok = Keyring.check_message_with ~hash:(fun _ -> proof_hash s) keyring s.m in
  Obs.Prof.stop Obs.Prof.verify sp;
  ok

let store_key : t Domain.DLS.key = Domain.DLS.new_key create
let current () = Domain.DLS.get store_key
let () = Obs.Scope.at_run_start (fun () -> Domain.DLS.set store_key (create ()))
