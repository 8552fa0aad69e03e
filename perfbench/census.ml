(* The coverage reference for dpor-rf (coverage.tsv).

   For every sim job, an exhaustive dpor search (no rf deduplication)
   keys each execution it keeps with [Explore.rf_class_key]; the number
   of distinct keys is the rf⊕mo class count a complete dpor-rf search
   must keep.  An unreduced search with a small budget spot-checks it
   wherever that search finishes.  A census that hits its budget gives a
   lower bound, still a valid reference for "kept fewer than".  Generate with [main.exe --census 0/1 > perfbench/coverage.tsv]
   (or as shards [i/n], concatenated); the benchmark only reads it. *)

open Compass_machine
open Compass_spec
open Compass_sim

let file = "perfbench/coverage.tsv"

(* Execution budgets per search: depth-3 clients are far larger, and an
   unreduced search is only a spot-check. *)
let dpor_budget = function 2 -> 200_000 | _ -> 20_000
let none_budget = 5_000

(* The distinct rf⊕mo classes of every execution [reduce] keeps. *)
let classes ~reduce ~max_execs (sc : Explore.scenario) =
  let keys = Hashtbl.create 256 in
  let sc =
    {
      sc with
      Explore.build =
        (fun m ->
          let j = sc.Explore.build m in
          fun o ->
            Hashtbl.replace keys
              (Explore.rf_class_key ~outcome:o (Machine.accesses m))
              ();
            j o);
    }
  in
  let config = { Machine.default_config with Machine.record_accesses = true } in
  let r = Explore.dfs ~max_execs ~reduce ~config sc in
  (Hashtbl.length keys, r.Explore.complete)

let header = "# job\tdpor_classes\tdpor_complete\tnone_classes\tnone_complete\tdpor_rf_kept"

(* Census rows [i] with [i mod shards = shard], so the census can run as
   several processes.  Class keys do not depend on the judge, so the
   searches run under a judge that passes everything. *)
let generate ~shard ~shards =
  if shard = 0 then print_endline header;
  let clients depth = Mgc.generate ~depth () in
  let row = ref (-1) in
  List.iter
    (fun ((e : Libspec.entry), depth) ->
      List.iter
        (fun (c : Mgc.client) ->
          incr row;
          if !row mod shards = shard then
          let sc () = Mgc.scenario e ~judge:(fun _ _ -> Explore.Pass) c in
          let d, dc = classes ~reduce:Machine.RDpor ~max_execs:(dpor_budget depth) (sc ()) in
          let n, nc = classes ~reduce:Machine.RNone ~max_execs:none_budget (sc ()) in
          let rf =
            (Explore.dfs ~max_execs:Workloads.sim_budget ~reduce:Machine.RDporRf (sc ()))
              .Explore.executions
          in
          Printf.printf "%s\t%d\t%b\t%d\t%b\t%d\n%!"
            (Workloads.sim_jid e.Libspec.key depth c.Mgc.id)
            d dc n nc rf)
        (clients depth))
    (Workloads.sim_plan ())

(* job id -> reference class count: the dpor census, or the unreduced
   one where that finished and found more (on ms-weak, whose data-race
   faults end runs early, dpor keeps fewer classes than the full tree). *)
let load () =
  let tbl = Hashtbl.create 4096 in
  In_channel.with_open_text file (fun ic ->
      Seq.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char '\t' line with
            | [ jid; d; _; n; nc; _ ] ->
                let d = int_of_string d and n = int_of_string n in
                Hashtbl.replace tbl jid (if bool_of_string nc then max d n else d)
            | _ -> failwith ("malformed line in " ^ file ^ ": " ^ line))
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  tbl
