(** The client's draw, for the harness: every randomized database in the
    experiments, the statistical checks and the tests is drawn the way
    [ppdm randomize], [private] and [load] draw it, by
    {!Ppdm_runtime.Parallel.randomize} into a report store.  The draw
    does not depend on the job count, so one job is used. *)

open Ppdm_prng
open Ppdm_data
open Ppdm

val reports : Randomizer.t -> Rng.t -> Db.t -> Reports.t
(** [Parallel.randomize] at [~jobs:1] and the default chunk: the store
    [private] mines.  [rng] advances by one draw.
    @raise Invalid_argument on a universe mismatch. *)

val rows : Reports.t -> (int * Itemset.t) array
(** The store's rows as [(original size, report)] pairs, in input order
    ({!Ppdm.Reports.iter_rows}). *)

val tagged : Randomizer.t -> Rng.t -> Db.t -> (int * Itemset.t) array
(** [rows (reports scheme rng db)]. *)
