(** Streaming branch-log codec: the wire-v4 native payload.

    Encodes branch bits online, as the field run appends them, into a
    byte-aligned self-delimiting token stream — fixed preallocated state,
    no GC allocation on the per-probe path — and decodes them streamingly
    on the developer side.  Two token kinds: LITERAL (1..63 packed bits)
    and MATCH (period P in 1..8, length L: "the next L bits each equal the
    bit P positions earlier in the decoded stream"), so plain runs (P=1)
    and the periodic patterns loop bodies emit (P=2..8) both collapse to a
    few bytes while adversarial streams cost at most ~1.14x of raw.  Any
    prefix cut at a token boundary decodes to exactly the bits those
    tokens carry, which is what torn-log salvage needs.  See codec.ml for
    the full grammar and DESIGN.md §5j for the design discussion. *)

val default_buffer_bytes : int

(** Minimum trailing match length before the encoder opens a MATCH token
    (below it, bits ride the literal path). *)
val match_min : int

(** A finished encoded log: the artifact a v4 bug report ships.
    [flushes] counts 4 KB fills of the *encoded* stream, mirroring
    {!Branch_log}'s accounting of what the user site actually writes. *)
type encoded = { data : string; nbits : int; flushes : int }

val size_bytes : encoded -> int

module Encoder : sig
  type t

  val create : ?buffer_bytes:int -> unit -> t

  (** Append one branch bit.  Mutates only integer state; amortized O(1),
      no per-call allocation. *)
  val add_bit : t -> bool -> unit

  val nbits : t -> int

  (** Token-align the output: after [flush] the bytes emitted so far
      decode to exactly the bits appended so far.  Encoding continues
      afterwards (a split run costs one extra token). *)
  val flush : t -> unit
end

(** Close the encoder and take the encoded log (one-shot, like
    {!Branch_log.finish}). *)
val finish : Encoder.t -> encoded

(** Strict validation: number of bits the token stream decodes to, or
    [Error] if any token is truncated or invalid. *)
val count_bits : string -> (int, string) result

(** Longest salvageable head of a torn or corrupt stream that decodes to
    at most [max_bits] bits, with the bit count it decodes to.  Usually
    the prefix ending on the last complete-token boundary; when the
    stream tears (or reaches [max_bits]) inside a LITERAL token, the
    payload bytes that did arrive are recovered too (the token is
    rewritten as a complete shorter literal), so even a single-token
    payload salvages byte-granular.  A MATCH token that would pass
    [max_bits] is dropped.  Total: never an error, never allocates more
    than [data], and the result always satisfies [count_bits]. *)
val cut_prefix : max_bits:int -> string -> string * int

module Reader : sig
  type t

  val create : encoded -> t

  (** Next bit, or [None] once [nbits] bits were delivered (or on a
      malformed stream — impossible for a payload validated with
      {!count_bits}). *)
  val next : t -> bool option

  (** Bits delivered so far. *)
  val pos : t -> int
end

(** Decode to the raw packed log; fail-closed (the whole stream must
    parse and match [nbits] exactly).  [flushes] carries over verbatim. *)
val decode : encoded -> (Branch_log.log, string) result

(** Re-encode a finished raw log (offline path: benches, tests). *)
val encode : ?buffer_bytes:int -> Branch_log.log -> encoded
