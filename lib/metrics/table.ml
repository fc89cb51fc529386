type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let to_string ~title ~header ?align rows =
  let ncols = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> ncols then
        invalid_arg
          (Printf.sprintf "Table: row %d has %d cells, expected %d" i
             (List.length row) ncols))
    rows;
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ -> invalid_arg "Table: align arity mismatch"
    | None -> List.init ncols (fun _ -> Right)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Int.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let buf = Buffer.create 256 in
  let rule () =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-'))
      widths;
    Buffer.add_string buf "+\n"
  in
  let render_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_string buf ("| " ^ pad a w cell ^ " "))
      cells;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  rule ();
  render_row header;
  rule ();
  List.iter render_row rows;
  rule ();
  Buffer.contents buf

let print ~title ~header ?align rows =
  print_string (to_string ~title ~header ?align rows)

let ffloat ?(decimals = 2) x =
  if Float.is_integer x && Float.abs x < 1e15 && decimals = 0 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" decimals x

let fratio ?(decimals = 2) a b =
  if b = 0. then "-" else ffloat ~decimals (a /. b)
