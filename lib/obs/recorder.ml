type event = {
  at : float;
  tick : int;
  domain : int;
  kind : string;
  name : string;
  attrs : (string * string) list;
}

(* One process-wide black box.  The ring is mutex-guarded (events come
   from every domain); the enabled flag and the current virtual-clock
   tick are atomics so the disabled fast path in [note] is one load and
   stamping the tick from the session pump takes no lock. *)
type t = {
  mu : Mutex.t;
  enabled : bool Atomic.t;
  tick : int Atomic.t;
  mutable capacity : int;
  mutable slots : event option array;
  mutable added : int;
}

let create ?(capacity = 2048) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  {
    mu = Mutex.create ();
    enabled = Atomic.make true;
    tick = Atomic.make 0;
    capacity;
    slots = Array.make capacity None;
    added = 0;
  }

let default = create ()

let locked f =
  Mutex.lock default.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock default.mu) f

let set_enabled b = Atomic.set default.enabled b
let is_enabled () = Atomic.get default.enabled
let set_tick n = Atomic.set default.tick n
let tick () = Atomic.get default.tick

let set_capacity capacity =
  if capacity < 1 then invalid_arg "Recorder.set_capacity: capacity must be >= 1";
  locked (fun () ->
      default.capacity <- capacity;
      default.slots <- Array.make capacity None;
      default.added <- 0)

let reset () =
  locked (fun () ->
      Array.fill default.slots 0 default.capacity None;
      default.added <- 0);
  Atomic.set default.tick 0

let note ?tick:tk ?(attrs = []) ~kind name =
  if Atomic.get default.enabled then begin
    let e =
      {
        at = Unix.gettimeofday ();
        tick = (match tk with Some n -> n | None -> Atomic.get default.tick);
        domain = (Domain.self () :> int);
        kind;
        name;
        attrs;
      }
    in
    locked (fun () ->
        default.slots.(default.added mod default.capacity) <- Some e;
        default.added <- default.added + 1)
  end

let events () =
  locked (fun () ->
      let n = Int.min default.added default.capacity in
      let first =
        if default.added > default.capacity then
          default.added mod default.capacity
        else 0
      in
      List.init n (fun i ->
          match default.slots.((first + i) mod default.capacity) with
          | Some e -> e
          | None -> assert false))

let dropped () = locked (fun () -> Int.max 0 (default.added - default.capacity))

(* {1 Bundle dump}

   A self-describing JSONL document: a header line naming the dump
   reason (and, for matrix failures, the exact cell to replay with
   [--only]), one line per recorded event, one line holding the full
   metrics snapshot, and a footer with the event count so a truncated
   file is detectable. *)

let esc = Trace.json_escape

let attrs_json buf attrs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v)))
    attrs;
  Buffer.add_char buf '}'

let event_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"at\":%.6f,\"tick\":%d,\"domain\":%d,\"kind\":\"%s\",\"name\":\"%s\""
       e.at e.tick e.domain (esc e.kind) (esc e.name));
  (match e.attrs with
   | [] -> ()
   | attrs ->
     Buffer.add_string buf ",\"attrs\":";
     attrs_json buf attrs);
  Buffer.add_char buf '}';
  Buffer.contents buf

let magic = "ltree-flight"

let dump ?(reason = "manual") ?(attrs = []) () =
  let evs = events () in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"bundle\":\"%s\",\"version\":1,\"reason\":\"%s\",\"at\":%.6f,\"events\":%d,\"dropped\":%d,\"attrs\":"
       magic (esc reason) (Unix.gettimeofday ()) (List.length evs) (dropped ()));
  attrs_json buf attrs;
  Buffer.add_string buf "}\n";
  List.iter
    (fun e ->
      Buffer.add_string buf (event_json e);
      Buffer.add_char buf '\n')
    evs;
  Buffer.add_string buf "{\"metrics\":";
  Buffer.add_string buf (Registry.expose_json ());
  Buffer.add_string buf "}\n";
  Buffer.add_string buf
    (Printf.sprintf "{\"end\":true,\"events\":%d}\n" (List.length evs));
  Buffer.contents buf

(* {1 Validation} *)

let has_substring hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > hn then false
    else if String.equal (String.sub hay i nn) needle then true
    else go (i + 1)
  in
  go 0

let nonblank_lines data =
  List.filter
    (fun l -> not (String.equal (String.trim l) ""))
    (String.split_on_char '\n' data)

let validate data =
  match Trace.validate_jsonl data with
  | Error e -> Error e
  | Ok n -> (
      match nonblank_lines data with
      | [] -> Error "empty bundle"
      | header :: rest ->
        if not (has_substring header (Printf.sprintf "\"bundle\":\"%s\"" magic))
        then Error "first line is not a bundle header"
        else if
          match List.rev rest with
          | [] -> true
          | footer :: _ -> not (has_substring footer "\"end\":true")
        then Error "last line is not a bundle footer"
        else if n < 3 then Error "bundle too short (header, metrics, footer)"
        else Ok n)

(* [attr_of_bundle data key] pulls a string attribute out of the header
   line, e.g. the failing cell name for [--only] replay.  The header is
   our own emitter's output, so a plain scan for the quoted key (and a
   colon-quote) is enough; escaped quotes inside the value are
   unescaped. *)
let attr_of_bundle data key =
  match nonblank_lines data with
  | [] -> None
  | header :: _ -> (
      let pat = Printf.sprintf "\"%s\":\"" key in
      let hn = String.length header and pn = String.length pat in
      let rec find i =
        if i + pn > hn then None
        else if String.equal (String.sub header i pn) pat then Some (i + pn)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some start ->
        let buf = Buffer.create 32 in
        let rec scan i =
          if i >= hn then None
          else
            match header.[i] with
            | '"' -> Some (Buffer.contents buf)
            | '\\' when i + 1 < hn ->
              (match header.[i + 1] with
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | c -> Buffer.add_char buf c);
              scan (i + 2)
            | c ->
              Buffer.add_char buf c;
              scan (i + 1)
        in
        scan start)
