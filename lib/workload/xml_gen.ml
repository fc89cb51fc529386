open Ltree_xml

type profile = {
  target_nodes : int;
  max_depth : int;
  mean_fanout : int;
  text_probability : float;
  tags : string array;
  tag_alpha : float;
}

let xmark_tags =
  [| "item"; "name"; "description"; "listitem"; "text"; "category";
     "person"; "address"; "city"; "country"; "emailaddress"; "interest";
     "open_auction"; "bidder"; "increase"; "annotation"; "parlist";
     "keyword"; "quantity"; "location"; "payment"; "shipping" |]

let default_profile ?(target_nodes = 1000) () =
  { target_nodes;
    max_depth = 12;
    mean_fanout = 4;
    text_probability = 0.3;
    tags = xmark_tags;
    tag_alpha = 1.1 }

let words =
  [| "auction"; "vintage"; "rare"; "lot"; "bid"; "mint"; "boxed"; "signed";
     "limited"; "edition"; "classic"; "original"; "antique"; "estate" |]

let random_text prng =
  let k = 2 + Prng.int prng 5 in
  String.concat " " (List.init k (fun _ -> Prng.pick prng words))

let generate ?(seed = 42) profile =
  if profile.target_nodes < 1 then
    invalid_arg "Xml_gen.generate: target_nodes must be >= 1";
  let prng = Prng.create seed in
  let zipf = Zipf.create ~n:(Array.length profile.tags) ~alpha:profile.tag_alpha in
  let budget = ref (profile.target_nodes - 1) in
  let fresh_tag () = profile.tags.(Zipf.sample zipf prng) in
  let rec fill parent depth =
    if !budget > 0 && depth < profile.max_depth then begin
      let want = 1 + Prng.int prng (2 * profile.mean_fanout) in
      let n = Int.min want !budget in
      let last_was_text = ref false in
      for _ = 1 to n do
        if !budget > 0 then begin
          decr budget;
          (* Two adjacent text nodes would merge on reparse, so a text
             child is never followed by another one. *)
          if
            Prng.float prng < profile.text_probability
            && not !last_was_text
          then begin
            last_was_text := true;
            Dom.append_child parent (Dom.text (random_text prng))
          end
          else begin
            last_was_text := false;
            let child = Dom.element (fresh_tag ()) in
            Dom.append_child parent child;
            fill child (depth + 1)
          end
        end
      done
    end
  in
  let root = Dom.element "site" in
  fill root 1;
  Dom.document root

(* {1 Structured XMark-like documents} *)

let first_names =
  [| "Ada"; "Grace"; "Edsger"; "Barbara"; "Donald"; "Leslie"; "Tony";
     "Robin"; "John"; "Niklaus"; "Frances"; "Alan" |]

let last_names =
  [| "Lovelace"; "Hopper"; "Dijkstra"; "Liskov"; "Knuth"; "Lamport";
     "Hoare"; "Milner"; "Backus"; "Wirth"; "Allen"; "Turing" |]

let cities =
  [| "Lisbon"; "Kyoto"; "Zurich"; "Montreal"; "Nairobi"; "Auckland";
     "Bergen"; "Valparaiso" |]

let countries =
  [| "Portugal"; "Japan"; "Switzerland"; "Canada"; "Kenya"; "New Zealand";
     "Norway"; "Chile" |]

let region_names =
  [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

let sentence prng =
  let k = 4 + Prng.int prng 8 in
  String.concat " " (List.init k (fun _ -> Prng.pick prng words))

let elem_text name s =
  let e = Dom.element name in
  Dom.append_child e (Dom.text s);
  e

let xmark ?(seed = 42) ~scale () =
  if scale <= 0. then invalid_arg "Xml_gen.xmark: scale must be positive";
  let prng = Prng.create seed in
  let n_items = Int.max 2 (int_of_float (60. *. scale)) in
  let n_people = Int.max 2 (int_of_float (25. *. scale)) in
  let n_categories = Int.max 2 (int_of_float (10. *. scale)) in
  let n_open = Int.max 1 (int_of_float (12. *. scale)) in
  let n_closed = Int.max 1 (int_of_float (8. *. scale)) in
  let item_id i = Printf.sprintf "item%d" i in
  let person_id i = Printf.sprintf "person%d" i in
  let category_id i = Printf.sprintf "category%d" i in
  let description () =
    let d = Dom.element "description" in
    let parlist = Dom.element "parlist" in
    for _ = 1 to 1 + Prng.int prng 3 do
      let li = Dom.element "listitem" in
      Dom.append_child li (elem_text "text" (sentence prng));
      Dom.append_child parlist li
    done;
    Dom.append_child d parlist;
    d
  in
  let item i =
    let it = Dom.element ~attrs:[ ("id", item_id i) ] "item" in
    Dom.append_child it (elem_text "location" (Prng.pick prng countries));
    Dom.append_child it
      (elem_text "quantity" (string_of_int (1 + Prng.int prng 5)));
    Dom.append_child it
      (elem_text "name"
         (Printf.sprintf "%s %s" (Prng.pick prng words) (Prng.pick prng words)));
    Dom.append_child it
      (elem_text "payment" (if Prng.bool prng then "Cash" else "Creditcard"));
    Dom.append_child it (description ());
    if Prng.bool prng then begin
      let mailbox = Dom.element "mailbox" in
      for _ = 1 to 1 + Prng.int prng 2 do
        let mail = Dom.element "mail" in
        Dom.append_child mail (elem_text "from" (Prng.pick prng first_names));
        Dom.append_child mail (elem_text "to" (Prng.pick prng first_names));
        Dom.append_child mail (elem_text "text" (sentence prng));
        Dom.append_child mailbox mail
      done;
      Dom.append_child it mailbox
    end;
    it
  in
  let person i =
    let p = Dom.element ~attrs:[ ("id", person_id i) ] "person" in
    Dom.append_child p
      (elem_text "name"
         (Printf.sprintf "%s %s"
            (Prng.pick prng first_names)
            (Prng.pick prng last_names)));
    Dom.append_child p
      (elem_text "emailaddress"
         (Printf.sprintf "mailto:p%d@example.org" i));
    if Prng.bool prng then begin
      let a = Dom.element "address" in
      Dom.append_child a
        (elem_text "street"
           (Printf.sprintf "%d %s St" (1 + Prng.int prng 99)
              (Prng.pick prng words)));
      Dom.append_child a (elem_text "city" (Prng.pick prng cities));
      Dom.append_child a (elem_text "country" (Prng.pick prng countries));
      Dom.append_child p a
    end;
    if Prng.int prng 3 = 0 then begin
      let w = Dom.element "watches" in
      for _ = 1 to 1 + Prng.int prng 3 do
        Dom.append_child w
          (Dom.element
             ~attrs:[ ("category", category_id (Prng.int prng n_categories)) ]
             "watch")
      done;
      Dom.append_child p w
    end;
    p
  in
  let open_auction i =
    let a =
      Dom.element ~attrs:[ ("id", Printf.sprintf "open_auction%d" i) ]
        "open_auction"
    in
    Dom.append_child a
      (elem_text "initial" (string_of_int (1 + Prng.int prng 200)));
    for _ = 1 to Prng.int prng 4 do
      let b = Dom.element "bidder" in
      Dom.append_child b
        (elem_text "date"
           (Printf.sprintf "%02d/%02d/2004" (1 + Prng.int prng 12)
              (1 + Prng.int prng 28)));
      Dom.append_child b
        (Dom.element
           ~attrs:[ ("person", person_id (Prng.int prng n_people)) ]
           "personref");
      Dom.append_child b
        (elem_text "increase" (string_of_int (1 + Prng.int prng 50)));
      Dom.append_child a b
    done;
    Dom.append_child a
      (Dom.element ~attrs:[ ("item", item_id (Prng.int prng n_items)) ]
         "itemref");
    Dom.append_child a
      (Dom.element
         ~attrs:[ ("person", person_id (Prng.int prng n_people)) ]
         "seller");
    let ann = Dom.element "annotation" in
    Dom.append_child ann (elem_text "text" (sentence prng));
    Dom.append_child a ann;
    a
  in
  let closed_auction i =
    let a =
      Dom.element ~attrs:[ ("id", Printf.sprintf "closed_auction%d" i) ]
        "closed_auction"
    in
    Dom.append_child a
      (Dom.element
         ~attrs:[ ("person", person_id (Prng.int prng n_people)) ]
         "seller");
    Dom.append_child a
      (Dom.element
         ~attrs:[ ("person", person_id (Prng.int prng n_people)) ]
         "buyer");
    Dom.append_child a
      (Dom.element ~attrs:[ ("item", item_id (Prng.int prng n_items)) ]
         "itemref");
    Dom.append_child a
      (elem_text "price" (string_of_int (10 + Prng.int prng 990)));
    Dom.append_child a (elem_text "quantity" "1");
    a
  in
  let site = Dom.element "site" in
  (* Regions with items spread across them. *)
  let regions = Dom.element "regions" in
  let region_elems =
    Array.map (fun r -> Dom.element r) region_names
  in
  Array.iter (Dom.append_child regions) region_elems;
  for i = 0 to n_items - 1 do
    Dom.append_child (Prng.pick prng region_elems) (item i)
  done;
  Dom.append_child site regions;
  (* Categories. *)
  let categories = Dom.element "categories" in
  for i = 0 to n_categories - 1 do
    let c = Dom.element ~attrs:[ ("id", category_id i) ] "category" in
    Dom.append_child c (elem_text "name" (Prng.pick prng words));
    Dom.append_child c (description ());
    Dom.append_child categories c
  done;
  Dom.append_child site categories;
  (* People. *)
  let people = Dom.element "people" in
  for i = 0 to n_people - 1 do
    Dom.append_child people (person i)
  done;
  Dom.append_child site people;
  (* Auctions. *)
  let open_auctions = Dom.element "open_auctions" in
  for i = 0 to n_open - 1 do
    Dom.append_child open_auctions (open_auction i)
  done;
  Dom.append_child site open_auctions;
  let closed_auctions = Dom.element "closed_auctions" in
  for i = 0 to n_closed - 1 do
    Dom.append_child closed_auctions (closed_auction i)
  done;
  Dom.append_child site closed_auctions;
  Dom.document site

let fig1 () =
  let book = Dom.element "book" in
  let chapter = Dom.element "chapter" in
  Dom.append_child chapter (Dom.element "title");
  Dom.append_child book chapter;
  Dom.append_child book (Dom.element "title");
  Dom.document book

