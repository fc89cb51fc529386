open Ltree_xml
open Ltree_core

exception Corrupt of string

let magic = "ltree-snapshot 1"

(* [iter_texts f nodes] visits the text nodes under [nodes] in document
   order.  Plain recursion, not [Dom.iter_preorder], so no closure is
   built per node. *)
let rec iter_texts f = function
  | [] -> ()
  | n :: rest ->
    (match Dom.kind n with
     | Dom.Text s -> f n s
     | Dom.Element _ | Dom.Comment _ | Dom.Pi _ ->
       iter_texts f (Dom.children n));
    iter_texts f rest

(* The number of text nodes, after checking that none is empty. *)
let count_texts roots =
  let count = ref 0 in
  iter_texts
    (fun n s ->
      if s = "" then
        invalid_arg
          (Printf.sprintf
             "Snapshot.save: text node #%d (document order, dom id %d) is \
              empty — empty text nodes vanish in the serialization and \
              cannot be snapshotted"
             !count (Dom.id n));
      incr count)
    roots;
  !count

(* [add_digits scratch n pos] writes the decimal digits of [n >= 0]
   right to left into [scratch], ending at [pos], and returns the
   position of the first. *)
let rec add_digits scratch n pos =
  Bytes.set scratch pos (Char.chr (Char.code '0' + (n mod 10)));
  if n < 10 then pos else add_digits scratch (n / 10) (pos - 1)

(* Every integer goes straight into the one buffer: the label line of a
   large document is the bulk of a checkpoint, so no per-entry string
   is built. *)
let save ldoc =
  let tree = Labeled_doc.tree ldoc in
  let params = Ltree.params tree in
  let doc = Labeled_doc.document ldoc in
  let roots = Option.to_list doc.Dom.root in
  let ntexts = count_texts roots in
  let nslots = Ltree.length tree in
  let buf = Buffer.create (4096 + (nslots * 8)) in
  (* Labels, slot indices and text lengths are never negative; 19
     bytes hold the digits of any of them. *)
  let scratch = Bytes.create 19 in
  let add_entry n =
    if n < 0 then invalid_arg "Snapshot.save: negative entry";
    let pos = add_digits scratch n 18 in
    Buffer.add_char buf ' ';
    Buffer.add_subbytes buf scratch pos (19 - pos)
  in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "params %d %d\n" params.Params.f params.Params.s);
  Buffer.add_string buf (Printf.sprintf "height %d\n" (Ltree.height tree));
  Buffer.add_string buf (Printf.sprintf "labels %d" nslots);
  let ndeleted = ref 0 in
  Ltree.iter_leaves tree (fun l ->
      add_entry (Ltree.label tree l);
      if Ltree.is_deleted l then incr ndeleted);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "deleted %d" !ndeleted);
  let i = ref 0 in
  Ltree.iter_leaves tree (fun l ->
      if Ltree.is_deleted l then add_entry !i;
      incr i);
  Buffer.add_char buf '\n';
  (* Reparsing merges adjacent text siblings; their decoded lengths let
     the loader split them back. *)
  Buffer.add_string buf (Printf.sprintf "texts %d" ntexts);
  iter_texts (fun _ s -> add_entry (String.length s)) roots;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "---\n";
  Buffer.add_string buf (Serializer.to_string doc);
  Buffer.contents buf

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let split_line s =
  match String.index_opt s '\n' with
  | None -> corrupt "unexpected end of snapshot"
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let ints_of_line line expected_tag =
  match String.split_on_char ' ' line with
  | tag :: count :: rest when tag = expected_tag -> (
      match int_of_string_opt count with
      | None -> corrupt "bad %s count" expected_tag
      | Some n ->
        let values =
          List.map
            (fun s ->
              match int_of_string_opt s with
              | Some v -> v
              | None -> corrupt "bad %s entry %S" expected_tag s)
            (List.filter (fun s -> s <> "") rest)
        in
        if List.length values <> n then
          corrupt "%s count mismatch" expected_tag;
        values)
  | _ -> corrupt "expected a %s line" expected_tag

(* Undo the text merging the reparse performed: walk the parsed text
   nodes in document order and split any whose length spans several
   recorded lengths. *)
let resplit_texts (doc : Dom.document) expected =
  let remaining = ref expected in
  let take () =
    match !remaining with
    | [] -> corrupt "more text content than recorded"
    | l :: rest ->
      remaining := rest;
      l
  in
  let text_nodes = ref [] in
  (match doc.root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         match Dom.kind n with
         | Dom.Text _ -> text_nodes := n :: !text_nodes
         | Dom.Element _ | Dom.Comment _ | Dom.Pi _ -> ()));
  List.iter
    (fun node ->
      let s =
        match Dom.kind node with
        | Dom.Text s -> s
        | Dom.Element _ | Dom.Comment _ | Dom.Pi _ -> assert false
      in
      let len = String.length s in
      let first = take () in
      if first = len then ()
      else if first > len then corrupt "text shorter than recorded"
      else begin
        (* This parsed node is a merge: split to the recorded lengths. *)
        Dom.set_text node (String.sub s 0 first);
        let off = ref first in
        let anchor = ref node in
        while !off < len do
          let next_len = take () in
          if !off + next_len > len then corrupt "text lengths do not add up";
          let piece = Dom.text (String.sub s !off next_len) in
          Dom.insert_after ~anchor:!anchor piece;
          anchor := piece;
          off := !off + next_len
        done
      end)
    (List.rev !text_nodes);
  if !remaining <> [] then corrupt "fewer text nodes than recorded"

let load ?counters s =
  let line, s = split_line s in
  if line <> magic then corrupt "bad magic %S" line;
  let params_line, s = split_line s in
  let params =
    match String.split_on_char ' ' params_line with
    | [ "params"; f; s ] -> (
        match (int_of_string_opt f, int_of_string_opt s) with
        | Some f, Some s -> (
            try Params.make ~f ~s
            with Invalid_argument m -> corrupt "bad params: %s" m)
        | _ -> corrupt "bad params line")
    | _ -> corrupt "expected a params line"
  in
  let height_line, s = split_line s in
  let height =
    match String.split_on_char ' ' height_line with
    | [ "height"; h ] -> (
        match int_of_string_opt h with
        | Some h when h >= 1 -> h
        | Some _ | None -> corrupt "bad height")
    | _ -> corrupt "expected a height line"
  in
  let labels_line, s = split_line s in
  let labels = Array.of_list (ints_of_line labels_line "labels") in
  let deleted_line, s = split_line s in
  let deleted = ints_of_line deleted_line "deleted" in
  let texts_line, s = split_line s in
  let texts = ints_of_line texts_line "texts" in
  let sep, xml = split_line s in
  if sep <> "---" then corrupt "expected the --- separator";
  let doc =
    try Parser.parse_string xml with
    | Parser.Error (msg, pos) ->
      corrupt "embedded document: %s at %s" msg
        (Format.asprintf "%a" Token.pp_position pos)
    | Lexer.Error (msg, pos) ->
      corrupt "embedded document: %s at %s" msg
        (Format.asprintf "%a" Token.pp_position pos)
  in
  resplit_texts doc texts;
  (* Restoration validates the label state; damage it rejects is still
     a corrupt snapshot, so surface it as such, typed. *)
  try Labeled_doc.restore ?counters ~params ~height ~labels ~deleted doc with
  | Invalid_argument m -> corrupt "label state rejected: %s" m
  | Ltree_analysis.Invariant.Violation { name; detail } ->
    corrupt "label state rejected: %s: %s" name detail

let save_file ldoc path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save ldoc))

let load_file ?counters path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load ?counters (really_input_string ic (in_channel_length ic)))
