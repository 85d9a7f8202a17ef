let () =
  Alcotest.run "noisy_sta"
    [
      Test_numerics.suite;
      Test_waveform.suite;
      Test_spice.suite;
      Test_device.suite;
      Test_interconnect.suite;
      Test_liberty.suite;
      Test_eqwave.suite;
      Test_noise.suite;
      Test_runtime.suite;
      Test_resilience.suite;
      Test_degradation.suite;
      Test_sta.suite;
      Test_extensions.suite;
      Test_substrate.suite;
      Test_server.suite;
      Test_fuzz.suite;
      Test_crash.suite;
      Test_sweep.suite;
    ]
