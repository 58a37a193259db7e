(* display width of a UTF-8 cell: its code points, so the two-byte "±"
   of [latency_cell] pads as one column *)
let display_width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

(* the first column is left-aligned, the rest right-aligned *)
let pad ~left width s =
  let fill = String.make (max 0 (width - display_width s)) ' ' in
  if left then s ^ fill else fill ^ s

let render ~header ~rows () =
  let ncols = List.length header in
  let rows =
    let normalize row =
      let len = List.length row in
      if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
    in
    List.map normalize rows
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (display_width (List.nth row i))) (display_width h) rows)
      header
  in
  let line ch =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths) ^ "+"
  in
  let format_row cells =
    let parts =
      List.mapi (fun i (w, c) -> " " ^ pad ~left:(i = 0) w c ^ " ") (List.combine widths cells)
    in
    "|" ^ String.concat "|" parts ^ "|"
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (format_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (format_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.contents buf

let latency_cell ~mean ~ci = Printf.sprintf "%.2f ± %.2f" mean ci
