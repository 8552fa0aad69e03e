(* COMPASS-OCaml test runner.

   Suites are grouped bottom-up: substrate (views, memory), machine, event
   graphs and orders, spec checkers, data structures, and the paper's
   client verifications.  Model-checking tests are tagged [`Slow]; run
   [dune runtest] for everything or [ALCOTEST_QUICK_TESTS=1] for the fast
   subset. *)

let () =
  Alcotest.run "compass"
    [
      ("view", Test_view.suite);
      ("memory", Test_memory.suite);
      ("machine", Test_machine.suite);
      ("decision", Test_decision.suite);
      ("explore", Test_explore.suite);
      ("dpor", Test_dpor.suite);
      ("rfkey", Test_rfkey.suite);
      ("fuzz", Test_fuzz.suite);
      ("event", Test_event.suite);
      ("order", Test_order.suite);
      ("queue-spec", Test_queue_spec.suite);
      ("stack-spec", Test_stack_spec.suite);
      ("exchanger-spec", Test_exchanger_spec.suite);
      ("ws-spec", Test_ws_spec.suite);
      ("linearize", Test_linearize.suite);
      ("spsc-spec", Test_spsc_spec.suite);
      ("conformance", Test_conformance.suite);
      ("rc11", Test_rc11.suite);
      ("registry", Test_registry.suite);
      ("sim", Test_sim.suite);
      ("analysis", Test_analysis.suite);
      ("static", Test_static.suite);
      ("prefix", Test_prefix.suite);
      ("dstruct", Test_dstruct.suite);
      ("clients", Test_clients.suite);
    ]
