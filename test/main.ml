(* Aggregates every module's alcotest suites into one runner. *)

let () =
  Alcotest.run "stripe"
    (List.concat
       [
         Test_eventq.suites;
         Test_calendar.suites;
         Test_sim.suites;
         Test_rng.suites;
         Test_loss.suites;
         Test_link.suites;
         Test_fault.suites;
         Test_impair.suites;
         Test_packet.suites;
         Test_deficit.suites;
         Test_cfq.suites;
         Test_scheduler.suites;
         Test_striper.suites;
         Test_resequencer.suites;
         Test_seq_resequencer.suites;
         Test_reset.suites;
         Test_fragmenter.suites;
         Test_skew_duplex.suites;
         Test_atm.suites;
         Test_stabilizer.suites;
         Test_misc.suites;
         Test_obs.suites;
         Test_properties.suites;
         Test_mppp.suites;
         Test_trace_file.suites;
         Test_fair_queue.suites;
         Test_misc2.suites;
         Test_integration.suites;
         Test_fairness.suites;
         Test_metrics.suites;
         Test_host.suites;
         Test_ipstack.suites;
         Test_adapt.suites;
         Test_fleet.suites;
         Test_sharded.suites;
         Test_chaos.suites;
         Test_health.suites;
         Test_disciplines.suites;
         Test_transport.suites;
         Test_workload.suites;
         Test_alloc.suites;
       ])
