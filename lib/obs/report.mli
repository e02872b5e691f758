(** Render a {!Metrics.snapshot} and {!Span.tree} for humans (aligned
    table) or machines (JSON lines, one object per metric/span).

    JSON-lines schema, one object per line:
    - [{"type":"counter","name":n,"value":v}]
    - [{"type":"gauge","name":n,"value":v}]
    - [{"type":"histogram","name":n,"count":c,"sum":s,"mean":m,
        "min":_,"max":_,"p50":_,"p90":_,"p99":_,"buckets":[[lo,count],...]}]
    - [{"type":"span","path":"a/b/c","calls":c,"total_ns":t,"mean_ns":m}]

    Every line parses with {!Json.parse} (the CI smoke test relies on
    that). *)

type format = Human | Json

val to_string : format -> string
(** Render the current global state ({!Metrics.snapshot} +
    {!Span.tree}). *)
