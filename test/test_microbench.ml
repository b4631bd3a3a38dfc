(* Tests for the benchmark harness: the artifact writer and reader agree
   on every row (names with any bytes, any finite non-negative value,
   every unit), each declared gate fires on a doctored row set, and the
   retired two-key format is rejected by name. *)

module M = Microbench

let qc = QCheck_alcotest.to_alcotest

let suite name = Option.get (M.find_suite name)

let units = [ M.Ns; M.Us; M.Per_s; M.Ratio; M.Slots; M.Count ]

let row_gen =
  let open QCheck.Gen in
  (* Plain bytes plus a heavy share of what JSON must escape. *)
  let char_gen = oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '/' ] ] in
  let value_gen =
    oneof
      [ return 0.0;
        float_bound_inclusive 1.0;
        map (fun f -> if Float.is_finite f then Float.abs f else 0.0) float ]
  in
  map3
    (fun name value unit -> { M.name; value; unit })
    (string_size ~gen:char_gen (0 -- 24))
    value_gen (oneofl units)

let print_rows rows =
  String.concat "; "
    (List.map
       (fun (r : M.row) -> Printf.sprintf "%S=%h %s" r.name r.value (M.unit_to_string r.unit))
       rows)

let test_json_roundtrip =
  QCheck.Test.make ~count:1_000 ~name:"of_json reads back every row to_json writes"
    (QCheck.make ~print:print_rows QCheck.Gen.(list_size (0 -- 8) row_gen))
    (fun rows ->
      match M.of_json (M.to_json (suite "core") rows) with
      | Ok ("core", rows') -> rows' = rows
      | Ok (s, _) -> QCheck.Test.fail_reportf "suite read back as %S" s
      | Error e -> QCheck.Test.fail_report e)

(* The committed BENCH_8 and BENCH_10 rows. *)
let corpus_rows ~mmap_cold =
  [ { M.name = "corpus/corpus-mmap-coldstart-find"; value = mmap_cold; unit = M.Ns };
    { M.name = "corpus/corpus-mmap-find-warm"; value = 232.074; unit = M.Ns };
    { M.name = "corpus/corpus-store-coldstart-find"; value = 3727050.095; unit = M.Ns };
    { M.name = "corpus/corpus-store-find-warm"; value = 51.343; unit = M.Ns } ]

let server_rows ?(speedup = 6.376) ~cpu_ratio ~dropped () =
  [ { M.name = "server-binary-vs-text-speedup"; value = speedup; unit = M.Ratio };
    { M.name = "server-binary-vs-text-cpu-ratio"; value = cpu_ratio; unit = M.Ratio };
    { M.name = "server-binary-daemon-cpu-us"; value = 1.096; unit = M.Us };
    { M.name = "server-text-daemon-cpu-us"; value = 7.203; unit = M.Us };
    { M.name = "server-binary-warm-rps"; value = 388289.576; unit = M.Per_s };
    { M.name = "server-open-10k-dropped"; value = dropped; unit = M.Count };
    { M.name = "server-open-10k-p50-us"; value = 145443.0; unit = M.Us };
    { M.name = "server-open-10k-p95-us"; value = 231061.0; unit = M.Us };
    { M.name = "server-open-10k-p99-us"; value = 237904.0; unit = M.Us };
    { M.name = "server-text-warm-rps"; value = 52548.874; unit = M.Per_s } ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_error ~mentions = function
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" mentions
  | Error e ->
    if not (contains e mentions) then Alcotest.failf "error %S does not mention %S" e mentions

let test_gates_fire () =
  let ok = Alcotest.(check (result unit string)) in
  ok "committed corpus rows pass" (Ok ())
    (M.check (suite "corpus") (corpus_rows ~mmap_cold:89122.582));
  ok "committed server rows pass" (Ok ())
    (M.check (suite "server") (server_rows ~cpu_ratio:6.52 ~dropped:0.0 ()));
  (* The wall-clock ratio is reported, not gated. *)
  ok "a low wall-clock speedup passes" (Ok ())
    (M.check (suite "server") (server_rows ~speedup:4.9 ~cpu_ratio:6.52 ~dropped:0.0 ()));
  expect_error ~mentions:"corpus-mmap-coldstart-find <= corpus-store-coldstart-find"
    (M.check (suite "corpus") (corpus_rows ~mmap_cold:3727051.0));
  expect_error ~mentions:"server-binary-vs-text-cpu-ratio >= 5"
    (M.check (suite "server") (server_rows ~cpu_ratio:4.9 ~dropped:0.0 ()));
  expect_error ~mentions:"server-open-10k-dropped == 0"
    (M.check (suite "server") (server_rows ~cpu_ratio:6.52 ~dropped:1.0 ()))

let test_required_rows_and_units () =
  let rows = server_rows ~cpu_ratio:6.52 ~dropped:0.0 () in
  expect_error ~mentions:"missing required benchmark rows: server-open-10k-p99-us"
    (M.check (suite "server")
       (List.filter (fun (r : M.row) -> r.name <> "server-open-10k-p99-us") rows));
  expect_error ~mentions:"row server-text-warm-rps has unit ns, expected 1/s"
    (M.check (suite "server")
       (List.map
          (fun (r : M.row) -> if r.name = "server-text-warm-rps" then { r with unit = M.Ns } else r)
          rows));
  (* A group prefix matches; a longer name that merely contains the
     declared one does not. *)
  expect_error ~mentions:"missing required benchmark rows: corpus-mmap-find-warm"
    (M.check (suite "corpus")
       (List.map
          (fun (r : M.row) ->
            if r.name = "corpus/corpus-mmap-find-warm" then { r with name = r.name ^ "-x" } else r)
          (corpus_rows ~mmap_cold:1.0)))

let test_artifact_format () =
  let v1 = "[\n  {\"name\": \"server-open-10k-dropped\", \"ns_per_call\": 0.000}\n]\n" in
  expect_error ~mentions:"v1 artifact" (M.of_json v1);
  let server = suite "server" in
  let good = M.to_json server (server_rows ~cpu_ratio:6.52 ~dropped:0.0 ()) in
  (match M.validate_json good with
  | Ok (s, rows) ->
    Alcotest.(check string) "names its suite" "server" s.M.name;
    Alcotest.(check int) "all rows" 10 (List.length rows)
  | Error e -> Alcotest.fail e);
  (* The first occurrence of [sub] in [s] replaced by [by]. *)
  let replace ~sub ~by s =
    let k = String.length sub in
    let rec find i = if String.sub s i k = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + k) (String.length s - i - k)
  in
  expect_error ~mentions:"unknown suite \"bogus\""
    (M.validate_json (replace ~sub:"\"server\"" ~by:"\"bogus\"" good));
  expect_error ~mentions:"unknown unit \"ms\""
    (M.of_json (replace ~sub:"\"1/s\"" ~by:"\"ms\"" good));
  expect_error ~mentions:"duplicate \"value\" key"
    (M.of_json (replace ~sub:"\"value\": 0," ~by:"\"value\": 0, \"value\": 0," good));
  expect_error ~mentions:"non-negative"
    (M.of_json (replace ~sub:"\"value\": 0," ~by:"\"value\": -1," good));
  expect_error ~mentions:"trailing garbage" (M.of_json (good ^ "x"));
  (* Every JSON string escape reads back, surrogates aside. *)
  match
    M.of_json
      "{\"rows\": [{\"unit\": \"ns\", \"value\": 1e3, \"name\": \"a\\/\\b\\f\\u00e9\\u0041\"}], \
       \"suite\": \"core\"}"
  with
  | Ok ("core", [ { M.name; value; unit = M.Ns } ]) ->
    Alcotest.(check string) "escapes decoded" "a/\b\012\xc3\xa9A" name;
    Alcotest.(check (float 0.0)) "exponent" 1000.0 value
  | Ok _ -> Alcotest.fail "wrong rows"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "microbench"
    [
      ( "json",
        [ qc test_json_roundtrip; Alcotest.test_case "artifact format" `Quick test_artifact_format ]
      );
      ( "suites",
        [
          Alcotest.test_case "each gate fires on doctored rows" `Quick test_gates_fire;
          Alcotest.test_case "required rows and units" `Quick test_required_rows_and_units;
        ] );
    ]
