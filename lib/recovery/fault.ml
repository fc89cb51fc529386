module Prng = Ltree_workload.Prng

exception Crash of { point : int; what : string }

type io = {
  read_file : string -> string option;
  write_file : string -> string -> unit;
  append_file : string -> string -> unit;
  rename_file : src:string -> dst:string -> unit;
  fsync : string -> unit;
  remove_file : string -> unit;
  file_exists : string -> bool;
}

type mode = Clean | Torn | Flip | Short_read | Delay

let mode_name = function
  | Clean -> "clean"
  | Torn -> "torn"
  | Flip -> "flip"
  | Short_read -> "short-read"
  | Delay -> "delay"

let mode_of_name = function
  | "clean" -> Some Clean
  | "torn" -> Some Torn
  | "flip" -> Some Flip
  | "short-read" -> Some Short_read
  | "delay" -> Some Delay
  | _ -> None

let all_modes = [ Clean; Torn; Flip ]
let channel_modes = [ Clean; Torn; Flip; Short_read; Delay ]

type plan = { crash_point : int; mode : mode; seed : int }

(* {1 The simulated disk}

   A write-through in-memory filesystem: every primitive applies
   immediately, [fsync] is a counted ordering point with no further
   effect, and [rename] is atomic.  Each state-changing primitive
   advances the write-point counter; when the counter reaches the
   plan's [crash_point], the primitive misbehaves per [mode] and raises
   {!Crash}, leaving the table holding exactly what "the disk" would
   after power loss.

   A file is a flattened prefix plus the chunks appended since it was
   last flattened (newest first), so an append costs O(data) — what a
   real disk charges — instead of re-copying everything written before
   it.  Readers flatten on demand and keep the result, so a file is
   flattened at most once per append however often it is read. *)

type file = { mutable flat : string; mutable tail : string list }

let file_of_string data = { flat = data; tail = [] }

let contents f =
  (match f.tail with
   | [] -> ()
   | tail ->
     f.flat <- String.concat "" (f.flat :: List.rev tail);
     f.tail <- []);
  f.flat

type sim = {
  files : (string, file) Hashtbl.t;
  plan : plan option;
  mutable point : int;
}

let create_sim ?plan ?(files = []) () =
  let t = { files = Hashtbl.create 8; plan; point = 0 } in
  List.iter
    (fun (path, data) -> Hashtbl.replace t.files path (file_of_string data))
    files;
  t

let points t = t.point

let dump t =
  Hashtbl.fold (fun path f acc -> (path, contents f) :: acc) t.files []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [arm t what] advances the write-point counter and returns the plan
   when this primitive is the one that must fail. *)
let arm t =
  t.point <- t.point + 1;
  match t.plan with
  | Some p when p.crash_point = t.point -> Some p
  | Some _ | None -> None

let flip_bit prng data =
  let i = Prng.int prng (String.length data) in
  let bit = Prng.int prng 8 in
  let b = Bytes.of_string data in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

(* What actually lands on disk for the payload of the failing write:
   nothing (clean crash at the boundary), a strict prefix (torn sector),
   or the full payload with one seeded bit flipped (medium error caught
   only by the checksum).  All choices derive from (seed, point), so a
   matrix entry replays exactly from its plan. *)
let injected_payload (p : plan) ~point data =
  let len = String.length data in
  if len = 0 then None
  else
    let prng = Prng.create (p.seed lxor (point * 0x9E3779B9)) in
    match p.mode with
    | Clean -> None
    | Torn -> Some (String.sub data 0 (Prng.int prng len))
    | Flip -> Some (flip_bit prng data)
    (* The transport-only kinds: a disk write has no "later" in which the
       remainder could still land (Short_read) and no delivery schedule to
       stretch (Delay), so on the simulated disk both degrade to the
       boundary crash — exactly like rename/fsync degrade Torn/Flip. *)
    | Short_read | Delay -> None

let crash t what =
  (* Feed the flight recorder before unwinding: the injection is the
     event a later bundle dump most needs to show. *)
  Ltree_obs.Span.note ~kind:"fault"
    ~attrs:[ ("point", string_of_int t.point) ]
    what;
  raise (Crash { point = t.point; what })

let sim_write t path data =
  match arm t with
  | None -> Hashtbl.replace t.files path (file_of_string data)
  | Some p ->
    (match injected_payload p ~point:t.point data with
     | None -> ()
     | Some partial -> Hashtbl.replace t.files path (file_of_string partial));
    crash t ("write " ^ path)

(* Appending to a missing file creates it, even when what lands is
   empty (a torn append of length 0). *)
let append_to t path data =
  match Hashtbl.find_opt t.files path with
  | Some f -> f.tail <- data :: f.tail
  | None -> Hashtbl.replace t.files path (file_of_string data)

let sim_append t path data =
  match arm t with
  | None -> append_to t path data
  | Some p ->
    (match injected_payload p ~point:t.point data with
     | None -> ()
     | Some partial -> append_to t path partial);
    crash t ("append " ^ path)

let sim_rename t ~src ~dst =
  match arm t with
  | Some _ -> crash t (Printf.sprintf "rename %s -> %s" src dst)
  | None -> (
    match Hashtbl.find_opt t.files src with
    | None -> invalid_arg ("Fault.rename: no such file " ^ src)
    | Some data ->
      Hashtbl.remove t.files src;
      Hashtbl.replace t.files dst data)

let sim_fsync t path =
  match arm t with Some _ -> crash t ("fsync " ^ path) | None -> ()

let sim_remove t path =
  match arm t with
  | Some _ -> crash t ("remove " ^ path)
  | None -> Hashtbl.remove t.files path

let sim_io t =
  {
    read_file =
      (fun path -> Option.map contents (Hashtbl.find_opt t.files path));
    write_file = (fun path data -> sim_write t path data);
    append_file = (fun path data -> sim_append t path data);
    rename_file = (fun ~src ~dst -> sim_rename t ~src ~dst);
    fsync = (fun path -> sim_fsync t path);
    remove_file = (fun path -> sim_remove t path);
    file_exists = (fun path -> Hashtbl.mem t.files path);
  }

(* {1 The real filesystem} *)

let real_read path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end
  else None

let real_write path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let real_append path data =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
      path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let real_fsync path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.fsync fd)

let real_io =
  {
    read_file = real_read;
    write_file = real_write;
    append_file = real_append;
    rename_file = (fun ~src ~dst -> Sys.rename src dst);
    fsync = real_fsync;
    remove_file = (fun path -> if Sys.file_exists path then Sys.remove path);
    file_exists = Sys.file_exists;
  }
