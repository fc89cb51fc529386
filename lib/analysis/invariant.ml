type depth = Cheap | Deep

exception Violation of { name : string; detail : string }

let fail ~name fmt =
  Printf.ksprintf (fun detail -> raise (Violation { name; detail })) fmt

type entry = { name : string; depth : depth; run : unit -> unit }
type registry = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }

let register reg ~name ~depth run =
  if List.exists (fun e -> String.equal e.name name) reg.entries then
    invalid_arg (Printf.sprintf "Invariant.register: duplicate name %S" name);
  reg.entries <- { name; depth; run } :: reg.entries

let entries reg = List.rev reg.entries
let names reg = List.map (fun e -> e.name) (entries reg)
let size reg = List.length reg.entries

type failure = { name : string; detail : string }

(* Violations feed the flight recorder so a later bundle dump shows
   which invariant tripped and why, alongside the events before it. *)
let record_failure f =
  Ltree_obs.Span.note ~kind:"invariant"
    ~attrs:[ ("detail", f.detail) ]
    f.name

let run_entry e =
  let failure =
    match e.run () with
    | () -> None
    | exception Violation { name; detail } -> Some { name; detail }
    | exception Failure detail -> Some { name = e.name; detail }
    | exception Invalid_argument detail -> Some { name = e.name; detail }
    | exception Not_found -> Some { name = e.name; detail = "Not_found" }
  in
  (match failure with Some f -> record_failure f | None -> ());
  failure

let run_all ?depth reg =
  let want e =
    match depth with
    | None | Some Deep -> true
    | Some Cheap -> ( match e.depth with Cheap -> true | Deep -> false)
  in
  List.filter_map
    (fun e -> if want e then run_entry e else None)
    (entries reg)

let pp_failure ppf f = Format.fprintf ppf "%s: %s" f.name f.detail

module Counterexample = struct
  type t = {
    f : int;
    s : int;
    seed : int;
    failing : string;
    detail : string;
    ops : string list;
    labels : int array;
  }

  let magic = "ltree-counterexample 1"
  let parse_fail fmt = fail ~name:"counterexample.parse" fmt

  let to_string c =
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "%s" magic;
    line "params %d %d" c.f c.s;
    line "seed %d" c.seed;
    line "failing %s" (String.escaped c.failing);
    line "detail %s" (String.escaped c.detail);
    line "labels %d%s" (Array.length c.labels)
      (String.concat ""
         (List.map (fun l -> " " ^ string_of_int l) (Array.to_list c.labels)));
    line "ops %d" (List.length c.ops);
    List.iter (fun op -> line "%s" (String.escaped op)) c.ops;
    Buffer.contents buf

  let unescape s =
    try Scanf.unescaped s
    with Scanf.Scan_failure _ -> parse_fail "bad escape in %S" s

  let split_lines s = String.split_on_char '\n' s

  let tagged tag line =
    let prefix = tag ^ " " in
    let plen = String.length prefix in
    if String.length line >= plen && String.equal (String.sub line 0 plen) prefix
    then String.sub line plen (String.length line - plen)
    else if String.equal line tag then ""
    else parse_fail "expected a %S line, got %S" tag line

  let int_of tag s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> parse_fail "bad %s value %S" tag s

  let of_string s =
    match split_lines s with
    | m :: params :: seed :: failing :: detail :: labels :: nops :: rest ->
      if not (String.equal m magic) then parse_fail "bad magic %S" m;
      let f, s_param =
        match String.split_on_char ' ' (tagged "params" params) with
        | [ f; s ] -> (int_of "params f" f, int_of "params s" s)
        | _ -> parse_fail "bad params line"
      in
      let seed = int_of "seed" (tagged "seed" seed) in
      let failing = unescape (tagged "failing" failing) in
      let detail = unescape (tagged "detail" detail) in
      let labels =
        match
          List.filter
            (fun x -> not (String.equal x ""))
            (String.split_on_char ' ' (tagged "labels" labels))
        with
        | [] -> parse_fail "bad labels line"
        | n :: values ->
          let n = int_of "labels count" n in
          let values = List.map (int_of "label") values in
          if List.length values <> n then parse_fail "labels count mismatch";
          Array.of_list values
      in
      let nops = int_of "ops count" (tagged "ops" nops) in
      (* [to_string] ends every line with '\n', so splitting leaves one
         trailing "" element after the op lines. *)
      let rec take k = function
        | rest when k = 0 ->
          (match rest with
           | [] | [ "" ] -> ()
           | l :: _ -> parse_fail "trailing garbage %S" l)
        | [] | [ "" ] -> parse_fail "fewer op lines than recorded"
        | _ :: rest -> take (k - 1) rest
      in
      take nops rest;
      let ops =
        List.filteri (fun i _ -> i < nops) rest |> List.map unescape
      in
      { f; s = s_param; seed; failing; detail; ops; labels }
    | _ -> parse_fail "truncated counterexample"

  let equal a b =
    a.f = b.f && a.s = b.s && a.seed = b.seed
    && String.equal a.failing b.failing
    && String.equal a.detail b.detail
    && List.length a.ops = List.length b.ops
    && List.for_all2 String.equal a.ops b.ops
    && Array.length a.labels = Array.length b.labels
    && Array.for_all2 ( = ) a.labels b.labels

  let pp ppf c =
    Format.fprintf ppf
      "@[<v>counterexample: invariant %s failed@,\
       detail: %s@,params: f=%d s=%d, seed %d@,\
       %d ops, %d leaf labels@]"
      c.failing c.detail c.f c.s c.seed (List.length c.ops)
      (Array.length c.labels)

  let save ~path c =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string c))
end

let shrink_budget = 100

type 'a shrunk = { log : 'a list; at_budget : bool }

exception Out_of_budget

let minimize ?(max_greedy = 64) ~fails ops =
  if not (fails ops) then
    invalid_arg "Invariant.minimize: the operation log does not fail";
  (* Every [fails] call after the first is charged to the budget, and
     every log that fails is smaller than the last one that did, so
     [best] is always the smallest failing log found so far. *)
  let calls = ref 1 in
  let best = ref (Array.of_list ops) in
  let fails_arr a =
    Array.length a > 0
    && begin
      if !calls >= shrink_budget then raise Out_of_budget;
      incr calls;
      fails (Array.to_list a)
    end
    && begin
      best := a;
      true
    end
  in
  let without a start stop =
    Array.append (Array.sub a 0 start)
      (Array.sub a stop (Array.length a - stop))
  in
  let run () =
    (* Smallest failing prefix.  The loop keeps the invariant that
       [prefix !hi] fails, so the result fails even when failure is not
       monotone in the prefix length. *)
    let all = !best in
    let lo = ref 1 and hi = ref (Array.length all) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fails_arr (Array.sub all 0 mid) then hi := mid else lo := mid + 1
    done;
    (* ddmin-style complement reduction: sweep the log trying to drop
       contiguous chunks, halving the chunk size down to pairs.  When a
       drop keeps the log failing, stay at the same start (the next
       chunk slides into place); otherwise move past the chunk. *)
    let sweep size =
      let start = ref 0 in
      while !start < Array.length !best do
        let cur = !best in
        let stop = Int.min (Array.length cur) (!start + size) in
        if not (fails_arr (without cur !start stop)) then
          start := !start + size
      done
    in
    let size = ref (Array.length !best / 2) in
    while !size >= 2 do
      sweep !size;
      size := !size / 2
    done;
    (* Greedily drop single ops while the remainder still fails. *)
    if Array.length !best <= max_greedy then sweep 1
  in
  match run () with
  | () -> { log = Array.to_list !best; at_budget = false }
  | exception Out_of_budget -> { log = Array.to_list !best; at_budget = true }
