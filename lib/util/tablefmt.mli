(** ASCII table rendering in the style of the paper's Tables 1–3. *)

val render : header:string list -> rows:string list list -> unit -> string
(** [render ~header ~rows ()] lays out a boxed table with padded
    columns, the first left-aligned and the rest right-aligned. Rows
    shorter than the header are padded with empty cells. *)

val latency_cell : mean:float -> ci:float -> string
(** Formats "mean ± ci" in milliseconds with two decimals, matching the
    paper's cell format. *)
