(* Study group: choosing among near-optimal answers.

   The single optimum is rarely the end of the story — an initiator wants
   alternatives ("same closeness, but Tuesday instead of Monday?").  This
   example lists the top-5 STGQ groups and explains the winner.

   Run with: dune exec examples/study_group.exe *)

open Stgq_core

let () =
  let ti = Workload.Scenario.people194 ~seed:7 ~days:7 () in
  let p = 4 and s = 1 and k = 1 and m = 4 in
  Format.printf "Top study groups of %d (s=%d, k=%d, %d slots):@.@." p s k m;

  let entries = Topk.stgq ~n:5 ti { Query.p; s; k; m } in
  List.iteri
    (fun i e ->
      Format.printf "  #%d  distance %.2f  members %s%s@." (i + 1)
        e.Topk.total_distance
        (String.concat ", " (List.map string_of_int e.Topk.attendees))
        (match e.Topk.start_slot with
        | Some start -> "  starts " ^ Timetable.Slot.to_string start
        | None -> ""))
    entries;
  Format.printf "@.";

  match entries with
  | best :: _ ->
      let solution =
        {
          Query.st_attendees = best.Topk.attendees;
          st_total_distance = best.Topk.total_distance;
          start_slot = Option.get best.Topk.start_slot;
        }
      in
      Format.printf "Why the winner works:@.%a@."
        (Explain.pp ?name:None)
        (Explain.stg ti { Query.p; s; k; m } solution)
  | [] -> Format.printf "No feasible study group this week.@."
