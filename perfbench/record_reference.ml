(* Records the interp-backend digest of every campaign request for a
   range of seeds — the reference the compiled backend is checked
   against:

     dune exec ./perfbench/record_reference.exe -- FIRST LAST \
       > perfbench/campaign_reference.txt

   The interp backend takes about 40 s per seed on the reference host. *)

let () =
  let first = int_of_string Sys.argv.(1) and last = int_of_string Sys.argv.(2) in
  for seed = first to last do
    List.iter
      (fun design ->
        let r =
          Testinfra.Faultcamp.run ~seed ~faults:Requests.campaign_faults
            ~backend:Testinfra.Faultcamp.Interp ~jobs:1
            (Requests.campaign_case design)
        in
        Printf.printf "%s %d %s\n%!" design seed (Requests.report_digest r))
      Requests.campaign_designs
  done
