(* Generate an empirical consistency profile by sweeping loss rate and
   feedback share with the announce/listen simulator — the data behind
   SSTP's profile-driven bandwidth allocator (paper §6.1, Figure 12).

     dune exec bin/sstp_profile_cli.exe -- --mu-total 45 --lambda 15

   Output: an aligned grid plus machine-readable `loss share c` lines
   that Profile.of_measurements can ingest after parsing. *)

open Cmdliner

module E = Softstate_core.Experiment
module Base = Softstate_core.Base
module Consistency = Softstate_core.Consistency

let mu_total_arg =
  Cli_arg.opt Cli_arg.positive [ "mu-total" ] 45.0 "Session bandwidth, kb/s."

let lambda_arg =
  Cli_arg.opt Cli_arg.positive [ "lambda" ] 15.0 "Update rate, kb/s."

let duration_arg =
  Cli_arg.opt Cli_arg.positive [ "duration" ] 4000.0 "Seconds per cell."

let losses_arg =
  Cli_arg.opt Arg.(list Cli_arg.probability) [ "losses" ]
    [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ]
    "Loss rates to sweep (comma separated)."

let shares_arg =
  Cli_arg.opt Arg.(list Cli_arg.share) [ "shares" ] [ 0.05; 0.1; 0.2; 0.3; 0.4 ]
    "Feedback shares of the session bandwidth to sweep."

let hot_frac_arg =
  Cli_arg.opt
    (Cli_arg.ranged Arg.float "a share in (0, 1)" (fun x -> x > 0.0 && x < 1.0))
    [ "hot-frac" ] 0.8 "Hot share of data bandwidth."

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~doc:"Write the profile to this file (Profile.save format).")

let generate mu_total lambda duration losses shares hot_frac out =
  let cell loss share =
    let mu_fb = share *. mu_total in
    let mu_data = mu_total -. mu_fb in
    let r =
      E.run
        { E.default with
          E.duration;
          lambda_kbps = lambda;
          death = Base.Lifetime_fixed 30.0;
          loss = E.Bernoulli loss;
          protocol =
            E.Feedback
              { mu_hot_kbps = hot_frac *. mu_data;
                mu_cold_kbps = (1.0 -. hot_frac) *. mu_data;
                mu_fb_kbps = Float.max 0.5 mu_fb;
                nack_bits = 500; fb_lossy = false };
          empty_policy = Consistency.Empty_is_consistent }
    in
    r.E.avg_consistency
  in
  let triples =
    List.concat_map
      (fun loss -> List.map (fun share -> (loss, share, cell loss share)) shares)
      losses
  in
  let profile = Sstp.Profile.of_measurements triples in
  Format.printf "# consistency profile: mu_total=%g kb/s lambda=%g kb/s@."
    mu_total lambda;
  Format.printf "%a@." Sstp.Profile.pp profile;
  print_endline "# machine readable: loss share consistency";
  List.iter
    (fun (l, s, c) -> Printf.printf "%g %g %.4f\n" l s c)
    triples;
  match out with
  | Some path ->
      Sstp.Profile.save profile ~path;
      Printf.eprintf "profile written to %s\n" path
  | None -> ()

let cmd =
  let doc = "generate an empirical SSTP consistency profile" in
  Cmd.v (Cmd.info "sstp-profile" ~doc)
    Term.(
      const generate $ mu_total_arg $ lambda_arg $ duration_arg $ losses_arg
      $ shares_arg $ hot_frac_arg $ out_arg)

let () = exit (Cmd.eval cmd)
