(* Aggregate test runner: `dune runtest`. *)

let () =
  Alcotest.run "vos"
    [
      Test_sim.suite;
      Test_par.suite;
      Test_hw.suite;
      Test_fs.suite_vpath;
      Test_fs.suite_blockdev;
      Test_fs.suite_xv6fs;
      Test_crash.suite_journal;
      Test_crash.suite_kernel;
      Test_fs.suite_fat32;
      Test_kernel.suite_sched;
      Test_kernel.suite_sched_classes;
      Test_kernel.suite_vm;
      Test_kernel.suite_ipc;
      Test_kernel.suite_files;
      Test_kernel.suite_io;
      Test_kernel.suite_devices;
      Test_kernel.suite_wm;
      Test_kernel.suite_debug;
      Test_kernel.suite_kcheck;
      Test_kperf.suite;
      Test_obs.suite;
      Test_user.suite_alloc;
      Test_user.suite_codecs;
      Test_user.suite_crypto;
      Test_user.suite_threads;
      Test_apps.suite_engines;
      Test_apps.suite_integration;
      Test_proto.suite;
      Test_ext.suite;
      Test_lintkit.suite;
      Test_fuzz.suite_fuzz;
      Test_fuzz.suite_regress;
      Test_formats.suite;
    ]
