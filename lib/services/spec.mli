(** Declarative, table-driven service definitions.

    The workload generators define services as OCaml closures; for
    stand-alone use (the [axml eval] command), services can instead be
    described in an XML file and registered from it:

    {v
    <services>
      <service name="forecast" latency="0.05" per-byte="1e-6">
        <case key="Paris"><sky>sunny</sky></case>
        <case key="London"><sky>rain</sky></case>
        <default><sky>unknown</sky></default>
      </service>
      <service name="news" memoize="true" push="false">
        <default><headline>nothing happened</headline></default>
      </service>
    </services>
    v}

    A call's parameters select the first [<case>] whose [key] equals the
    first text found in the parameter forest; otherwise the [<default>]
    applies (or an empty result). Case bodies are AXML forests — they may
    contain further [<axml:call>] elements. Attributes [latency],
    [per-byte], [memoize] and [push] are optional.

    Services may also declare their failure model inline:

    {v
    <service name="forecast" flaky="0.2" retries="3" timeout="0.5">...
    v}

    [flaky] (probability of a transient failure per attempt), [slow]
    (extra seconds per response) and [fail] (permanently down) build the
    service's {!Faults.schedule}; [retries], [timeout] (per-attempt
    budget, seconds) and [backoff] (base backoff, seconds) override the
    corresponding fields of {!Registry.default_policy}. Malformed values
    — probabilities outside [0, 1], negative retries or backoff,
    non-positive timeouts, unparsable numbers — raise {!Error}. *)

exception Error of string

val load_string : Registry.t -> string -> string list
val load_file : Registry.t -> string -> string list
