(* The one record shape of every committed BENCH_*.json:

     {"bench": NAME, "cores": N,
      "rows": [{"case": {...}, "metrics": {...}}, ...]}

   [case] holds the parameters that identify a row (workload, plan, n,
   domains, section, ...); [metrics] holds the measured numbers under
   their unit-suffixed names.  Files print one row per line. *)

module Json = Ltree_obs.Json

let int i = Json.Num (float_of_int i)
let num f = Json.Num f
let str s = Json.Str s

let row ~case ~metrics =
  Json.Obj [ ("case", Json.Obj case); ("metrics", Json.Obj metrics) ]

(* [write ~bench path rows] writes the record to [path]; an empty path
   (no [--json] given) writes nothing. *)
let write ~bench path rows =
  if not (String.equal path "") then begin
    let record =
      Json.Obj
        [ ("bench", str bench);
          ("cores", int (Domain.recommended_domain_count ()));
          ("rows", Json.Arr rows) ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Json.to_string ~break_depth:2 record);
        output_char oc '\n');
    Printf.printf "wrote %s\n" path
  end
