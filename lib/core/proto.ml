type value = V0 | V1 | Vbot

let value_equal a b =
  match (a, b) with V0, V0 | V1, V1 | Vbot, Vbot -> true | (V0 | V1 | Vbot), _ -> false

let value_to_int = function V0 -> 0 | V1 -> 1 | Vbot -> 2

let value_of_int = function
  | 0 -> V0
  | 1 -> V1
  | 2 -> Vbot
  | i -> raise (Util.Codec.Malformed (Printf.sprintf "invalid value %d" i))

let value_of_bit = function
  | 0 -> V0
  | 1 -> V1
  | b -> invalid_arg (Printf.sprintf "Proto.value_of_bit: %d" b)

let bit_of_value = function V0 -> Some 0 | V1 -> Some 1 | Vbot -> None
let value_to_string = function V0 -> "0" | V1 -> "1" | Vbot -> "bot"

type origin = Deterministic | Random
type status = Undecided | Decided
type phase_kind = Converge | Lock | Decide

let kind_of_phase phi =
  if phi < 1 then invalid_arg "Proto.kind_of_phase: phases start at 1";
  match phi mod 3 with 1 -> Converge | 2 -> Lock | _ -> Decide

type config = { n : int; f : int; k : int; max_phases : int }

let default_config ~n =
  let f = (n - 1) / 3 in
  { n; f; k = n - f; max_phases = 300 }

let tick_interval = 10.0e-3

let validate_config c =
  if c.n <= 0 then invalid_arg "Proto.validate_config: n must be positive";
  if c.f < 0 then invalid_arg "Proto.validate_config: f must be non-negative";
  if c.n <= 3 * c.f then invalid_arg "Proto.validate_config: need n > 3f";
  (* (n+f)/2 < k <= n-f *)
  if not (2 * c.k > c.n + c.f && c.k <= c.n - c.f) then
    invalid_arg "Proto.validate_config: need (n+f)/2 < k <= n-f";
  if c.max_phases < 3 then invalid_arg "Proto.validate_config: max_phases too small"

let quorum_exceeded c count = 2 * count > c.n + c.f
let half_quorum_exceeded c count = 4 * count > c.n + c.f
let past_faulty c count = count > c.f
let past_double_faulty c count = count > 2 * c.f

let sigma c ~t =
  if t < 0 || t > c.f then invalid_arg "Proto.sigma: need 0 <= t <= f";
  Obs.Analyze.sigma ~n:c.n ~k:c.k ~t
