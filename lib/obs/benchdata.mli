(** Machine-readable benchmark measurements and regression diffing.

    The bench harness emits one [BENCH_<section>.json] file per section —
    a JSON array of {!measurement} objects — through {!write_file}, and
    [ppdm bench-diff] reads two such files back with {!read_file} and
    gates on {!diff}: a measurement regresses when its current [ns_per_op]
    exceeds the baseline's by more than the tolerance fraction.  Built on
    the in-repo {!Json} codec, so the CI gate needs no external tooling.

    Measurements are keyed by (section, name, jobs); entries present on
    only one side are reported as missing/added, never as regressions —
    renaming or adding a benchmark must not trip the gate. *)

type measurement = {
  section : string;  (** harness section id: "b1", "b4", ... *)
  name : string;  (** measurement name within the section *)
  jobs : int;  (** domain count the measurement ran at *)
  ns_per_op : float;  (** nanoseconds per operation (lower is better) *)
  throughput : float;  (** operations per second *)
}

val key : measurement -> string
(** Identity within a file: ["<section>/<name>/j<jobs>"]. *)

val write_file : string -> measurement list -> unit

val read_file : string -> (measurement list, string) result
(** [Error] on unreadable JSON or on any element missing a field. *)

type regression = {
  baseline : measurement;
  current : measurement;
  ratio : float;  (** current ns_per_op / baseline ns_per_op, > 1 is slower *)
}

type diff = {
  regressions : regression list;  (** in baseline order *)
  compared : int;  (** measurements present on both sides *)
  missing : measurement list;  (** in baseline, absent from current *)
  added : measurement list;  (** in current, absent from baseline *)
}

val diff :
  tolerance:float ->
  baseline:measurement list ->
  current:measurement list ->
  diff
(** [diff ~tolerance ~baseline ~current] flags every shared measurement
    whose ratio exceeds [1. +. tolerance] ([tolerance 0.25] = "more than
    25% slower fails").  Baseline entries with [ns_per_op <= 0] are
    compared but can never regress (a broken baseline must not wedge the
    gate).  Raises [Invalid_argument] on a negative tolerance. *)
