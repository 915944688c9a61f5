(** Minimal JSON value type, parser, printer and decoder.

    The repository emits JSON in several places (workload traces, the
    Chrome trace exporter, the metrics registry, checkpoints,
    [BENCH_*.json] perf reports) and reads traces, checkpoints, configs
    and baselines back through {!Decode}. No JSON library is vendored,
    so this is a small recursive-descent implementation of exactly
    RFC 8259: objects, arrays, strings with escapes (including
    [\uXXXX], encoded to UTF-8), numbers, booleans and null.

    Numbers are held as [float]; integers up to 2{^53} round-trip
    exactly, and the printer renders integral values without a decimal
    point and everything else with 17 significant digits, so
    [parse (to_string v)] reproduces [v] for any finite value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses one JSON document (leading/trailing whitespace allowed).
    Errors carry a character offset and a short description. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Non-finite numbers
    render as [null], as everywhere else in the repository. *)

val equal : t -> t -> bool
(** Structural equality; object fields compare in order. *)

(** {1 Decoding}

    The one way the repository reads JSON back: traces, checkpoints,
    configs, guard policies and [BENCH_*.json] reports all decode
    through these combinators. A decoder maps a value to a [result],
    and every error names the path where it failed, e.g.
    [field "lives[3].proc" must be in \[0, 8)]. *)

module Decode : sig
  type json := t

  type error
  (** Where decoding failed (a path, empty at the top level) and why. *)

  type 'a t = json -> ('a, error) result

  val to_string : error -> string
  (** [missing field "PATH"] for an absent field, [field "PATH" WHAT]
      for a value of the wrong shape or range (["value WHAT"] at the
      top level), and [PATH: MESSAGE] for a {!fail}. *)

  val run : ?prefix:string -> 'a t -> json -> ('a, string) result
  (** Runs a decoder and renders its error after ["PREFIX: "]. *)

  val ( let* ) :
    ('a, error) result -> ('a -> ('b, error) result) -> ('b, error) result
  val ( let+ ) : ('a, error) result -> ('a -> 'b) -> ('b, error) result

  val fail : ?path:string -> string -> ('a, error) result
  (** An error with its own message, at [path] below the current value.
      Enclosing {!field}s and {!list}s prepend their segments. *)

  val of_result : ('a, string) result -> ('a, error) result
  (** A nested document's rendered error, as a {!fail}. *)

  val value : json t
  (** Any value, undecoded. *)

  val int : int t
  (** An integral number within +/-(2{^53}-1), where every integer is
      exact in a float: [1e300], [-1e300], [2{^53}] and [1.5] fail. *)

  val num : float t
  val str : string t
  val bool : bool t

  val at_least : int -> int t
  (** An {!int} [>= n]. *)

  val index : int -> int t
  (** An {!int} in [\[0, n)]: an index into an [n]-element table. *)

  val list : 'a t -> 'a list t
  (** An array; an error in element [i] gains the segment [[i]]. *)

  val listi : (int -> 'a t) -> 'a list t
  (** {!list}, passing each element's index to its decoder. *)

  val assoc : 'a t -> (string * 'a) list t
  (** An object as its (key, value) list, in document order. *)

  val field : string -> 'a t -> 'a t
  (** A required field. Other keys are ignored; of repeated keys the
      first counts. *)

  val field_opt : string -> 'a t -> 'a option t
  (** An optional field: [None] when absent {e or} [null]. *)

  val nullable : 'a t -> 'a option t
  (** [None] for [null]. *)

  val enum : (string * 'a) list -> 'a t
  (** A string naming one of the cases; the error lists them. *)

  val map : ('a -> 'b) -> 'a t -> 'b t
end
