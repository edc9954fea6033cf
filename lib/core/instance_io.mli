(** Plain-text serialization of instances.

    The format is line-oriented; [#] starts a comment. Keywords:

    {v
    env identical|uniform|restricted|unrelated
    machines <m>            # required for identical/unrelated
    classes <K>
    setups s_0 ... s_{K-1}
    jobs <n>
    sizes p_0 ... p_{n-1}          # not used by env unrelated
    job_class k_0 ... k_{n-1}
    speeds v_0 ... v_{m-1}         # env uniform only
    eligible                       # env restricted: m lines of n 0/1 flags
    ptimes                         # env unrelated: m lines of n floats
    setup_matrix                   # env unrelated, optional: m lines of K floats
    v}

    [inf] (case-insensitive) denotes infinity in [ptimes]/[setup_matrix].

    {!to_string} prints numbers exactly as [%.17g] does, so the text
    reads back to the same floats, but without [Printf]: it writes
    integral values below 1e17 digit by digit and formats only the
    other values. Every client solve frame and session create prints an
    instance, and most times in practice are integral. *)

type error = {
  line : int option;  (** 1-based line of the offending input, when known *)
  field : string option;
      (** the keyword/block being parsed ([setups], [job_class], ...) *)
  message : string;
}
(** Structured parse error. Every malformed input — truncated blocks,
    negative times, out-of-range class ids, unknown keywords — is reported
    through this record; the server layer renders it into protocol error
    responses without string-grubbing. *)

val error_to_string : error -> string
(** ["line 4: setups: expected 3 values, got 2"]-style rendering. *)

exception Parse_error of string
(** Raised by the exception-based entry points with [error_to_string] of
    the underlying {!error}. *)

val to_string : Instance.t -> string

val of_string_result : string -> (Instance.t, error) result
(** Total parsing entry point: never raises on malformed input. *)

val of_string : string -> Instance.t
(** [of_string_result] that raises {!Parse_error} on malformed input. *)

val to_file : string -> Instance.t -> unit

val of_file : string -> Instance.t
(** Raises {!Parse_error} on malformed input and [Sys_error] on I/O
    failure. *)
