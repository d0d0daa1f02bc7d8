(** Streaming branch-log codec: the wire-v4 native payload.

    The paper only ever compresses branch logs *after* the run (§5.3, gzip,
    10-20x) because naive online compression would blow the 17-instruction
    probe budget.  This codec closes that gap: bits are encoded as they are
    appended by the field run, with fixed preallocated state and no
    allocation on the per-probe path, and the output is flushable at any
    point so a torn log still decodes to a longest-complete-prefix.

    {2 Token grammar}

    The encoded stream is a sequence of byte-aligned, self-delimiting
    tokens.  The first (header) byte's top bit selects the kind:

    - [LITERAL] (bit7 = 1): bit6 must be 0 (reserved — a set bit6 makes the
      stream malformed, which the corruption negatives exploit); bits5..0
      hold the bit count n in 1..63 (0 is malformed).  ceil(n/8) payload
      bytes follow, bits packed LSB-first exactly like {!Branch_log}
      (padding bits in the last byte are ignored on decode).
    - [MATCH] (bit7 = 0): bits6..4 hold the period minus one (P in 1..8),
      bit3 is a continuation flag, bits2..0 the low three bits of the
      repeat length minus one (L >= 1).  While the continuation flag is
      set, further bytes follow: bit7 = continue, bits6..0 = the next seven
      bits of L-1, little-endian.  The token means "the next L bits each
      equal the bit P positions earlier in the decoded stream",
      sequentially (so a P=1 match is a plain run; P>1 captures the
      periodic patterns loop bodies emit).  A match token is malformed
      unless at least P bits precede it.

    A run of identical bits is a P=1 match: 4096 bits cost 3 bytes.  A
    loop body repeating the same 2-8 branch directions per iteration is a
    P=2..8 match and collapses just as flat — the case where offline RLE
    degenerates to one token per bit.  Worst case (adversarial bits) is
    the literal path at 72/63 ~ 1.14x of raw.

    {2 Torn-decode semantics}

    Tokens are self-delimiting and validated prefix-closed: any prefix of
    the byte stream cut at a token boundary decodes to exactly the bits
    those tokens carry, in order.  {!cut_prefix} finds that boundary for a
    torn payload — and when the tear lands inside a trailing LITERAL
    token it additionally keeps the payload bytes that arrived, since
    those are the decoded bits themselves; {!count_bits} is the strict
    validator (the whole stream
    must parse and the bit count must match the claimed count).

    {2 Zero-allocation argument}

    {!Encoder.add_bit} mutates only integer fields and a preallocated
    8-slot run table; bytes are appended into a geometrically grown
    [Bytes.t], so the amortized per-probe cost is a handful of integer
    ops and no GC allocation (the rare growth doubles a single flat
    buffer, the same amortization {!Buffer} relies on). *)

let default_buffer_bytes = Branch_log.default_buffer_bytes

(* A match must cover at least this many bits before it beats the literal
   path: a MATCH token for L in [9, 1024] costs 2 bytes where the literal
   path costs ~L*72/63 bits, so the break-even is near 14; 16 is
   conservative and keeps random streams from thrashing into matches. *)
let match_min = 16

(* Longest literal a single token carries; also lets the pending literal
   accumulator live in one 63-bit OCaml int. *)
let lit_max = 63

(** A finished encoded log: the artifact shipped in a v4 bug report.
    [flushes] counts 4 KB fills of the *encoded* stream (the storage the
    user site actually writes), mirroring {!Branch_log}'s accounting. *)
type encoded = { data : string; nbits : int; flushes : int }

let size_bytes (e : encoded) = String.length e.data

module Encoder = struct
  type t = {
    mutable out : Bytes.t;
    mutable len : int;
    mutable lit : int;  (** pending literal bits, LSB-first *)
    mutable lit_n : int;
    mutable m_active : bool;
    mutable m_period : int;  (** 1..8 while active *)
    mutable m_len : int;
    mrun : int array;
        (** [mrun.(p-1)]: length of the trailing stream suffix whose every
            bit equals the bit p positions before it *)
    mutable hist : int;  (** last 8 stream bits, bit0 = most recent *)
    mutable nbits : int;
    mutable flushes : int;
    mutable flushed_len : int;
    buffer_bytes : int;
  }

  let create ?(buffer_bytes = default_buffer_bytes) () =
    {
      out = Bytes.create 256;
      len = 0;
      lit = 0;
      lit_n = 0;
      m_active = false;
      m_period = 1;
      m_len = 0;
      mrun = Array.make 8 0;
      hist = 0;
      nbits = 0;
      flushes = 0;
      flushed_len = 0;
      buffer_bytes;
    }

  let emit_byte t c =
    if t.len = Bytes.length t.out then begin
      let bigger = Bytes.create (2 * Bytes.length t.out) in
      Bytes.blit t.out 0 bigger 0 t.len;
      t.out <- bigger
    end;
    Bytes.unsafe_set t.out t.len (Char.unsafe_chr c);
    t.len <- t.len + 1;
    if t.len - t.flushed_len >= t.buffer_bytes then begin
      t.flushes <- t.flushes + 1;
      t.flushed_len <- t.len
    end

  let emit_literal t =
    if t.lit_n > 0 then begin
      emit_byte t (0x80 lor t.lit_n);
      for i = 0 to ((t.lit_n + 7) / 8) - 1 do
        emit_byte t ((t.lit lsr (8 * i)) land 0xff)
      done;
      t.lit <- 0;
      t.lit_n <- 0
    end

  let emit_match t =
    if t.m_active then begin
      if t.m_len > 0 then begin
        let r = t.m_len - 1 in
        let rest = r lsr 3 in
        emit_byte t
          (((t.m_period - 1) lsl 4)
          lor (if rest > 0 then 0x08 else 0)
          lor (r land 0x7));
        let rest = ref rest in
        while !rest > 0 do
          let chunk = !rest land 0x7f in
          rest := !rest lsr 7;
          emit_byte t ((if !rest > 0 then 0x80 else 0) lor chunk)
        done
      end;
      t.m_active <- false;
      t.m_len <- 0
    end

  (* invariant: while a match is active the literal accumulator is empty
     (it was emitted when the match opened), so stream order is preserved *)
  let push_lit t bit =
    if bit <> 0 then t.lit <- t.lit lor (1 lsl t.lit_n);
    t.lit_n <- t.lit_n + 1;
    if t.lit_n = lit_max then emit_literal t

  (* The last [mrun.(p-1)] bits all match period p.  When one of those
     runs is long enough, retroactively convert the tail of the pending
     literal into the opening of a match token (the tail bits are exactly
     the most recent stream bits, so they are the matching ones). *)
  let maybe_open_match t =
    let best = ref 0 and best_p = ref 1 in
    for p = 8 downto 1 do
      if t.mrun.(p - 1) >= !best then begin
        best := t.mrun.(p - 1);
        best_p := p
      end
    done;
    if !best >= match_min then begin
      let m = min !best t.lit_n in
      t.lit <- t.lit land ((1 lsl (t.lit_n - m)) - 1);
      t.lit_n <- t.lit_n - m;
      emit_literal t;
      t.m_active <- true;
      t.m_period <- !best_p;
      t.m_len <- m
    end

  let add_bit t (b : bool) =
    let bit = if b then 1 else 0 in
    for p = 1 to 8 do
      if t.nbits >= p && (t.hist lsr (p - 1)) land 1 = bit then
        t.mrun.(p - 1) <- t.mrun.(p - 1) + 1
      else t.mrun.(p - 1) <- 0
    done;
    if t.m_active then begin
      if (t.hist lsr (t.m_period - 1)) land 1 = bit then
        t.m_len <- t.m_len + 1
      else begin
        emit_match t;
        push_lit t bit;
        maybe_open_match t
      end
    end
    else begin
      push_lit t bit;
      maybe_open_match t
    end;
    t.hist <- ((t.hist lsl 1) lor bit) land 0xff;
    t.nbits <- t.nbits + 1

  let nbits t = t.nbits

  (* Token-align: after a flush the encoded bytes so far decode to exactly
     the bits appended so far (the longest-complete-prefix guarantee a
     torn log needs).  Encoding continues afterwards; a split run costs
     one extra token, nothing more. *)
  let flush t =
    emit_match t;
    emit_literal t
end

let finish (t : Encoder.t) : encoded =
  Encoder.flush t;
  let flushes =
    t.Encoder.flushes + if t.Encoder.len > t.Encoder.flushed_len then 1 else 0
  in
  {
    data = Bytes.sub_string t.Encoder.out 0 t.Encoder.len;
    nbits = t.Encoder.nbits;
    flushes;
  }

(* ------------------------------------------------------------------ *)
(* Token walk shared by the strict validator and the salvage cutter. *)

(* Scan from the start; returns [(bits, pos, status)] where [pos] is the
   end of the last complete token, [bits] the count they decode to, and
   [status] whether the whole string was consumed ([`Complete]), stopped
   at an incomplete trailing token ([`Truncated]) or at an invalid one
   ([`Malformed]).  A token that would carry the count past [limit] stops
   the scan as if the stream were torn there. *)
let scan ?(limit = max_int) (data : string) =
  let n = String.length data in
  let rec go pos bits =
    if pos >= n then (bits, pos, `Complete)
    else
      let c = Char.code (String.unsafe_get data pos) in
      if c land 0x80 <> 0 then
        if c land 0x40 <> 0 then
          (bits, pos, `Malformed "reserved literal header bit set")
        else
          let cnt = c land 0x3f in
          if cnt = 0 then (bits, pos, `Malformed "empty literal token")
          else
            let nbytes = (cnt + 7) / 8 in
            if pos + 1 + nbytes > n || bits + cnt > limit then
              (bits, pos, `Truncated)
            else go (pos + 1 + nbytes) (bits + cnt)
      else
        let period = ((c lsr 4) land 0x7) + 1 in
        if bits < period then
          (bits, pos, `Malformed "match token before enough history")
        else
          let rec cont p r shift =
            if shift > 52 then `Malformed "match length overflow"
            else if p >= n then `Truncated
            else
              let b = Char.code (String.unsafe_get data p) in
              let r = r lor ((b land 0x7f) lsl shift) in
              if b land 0x80 <> 0 then cont (p + 1) r (shift + 7)
              else `Done (p + 1, r)
          in
          let res =
            if c land 0x08 = 0 then `Done (pos + 1, c land 0x7)
            else cont (pos + 1) (c land 0x7) 3
          in
          (match res with
          | `Done (_, r) when bits + r + 1 > limit -> (bits, pos, `Truncated)
          | `Done (p, r) -> go p (bits + r + 1)
          | `Truncated -> (bits, pos, `Truncated)
          | `Malformed m -> (bits, pos, `Malformed m))
  in
  go 0 0

let count_bits (data : string) : (int, string) result =
  match scan data with
  | bits, _, `Complete -> Ok bits
  | _, _, `Truncated -> Error "truncated token stream"
  | _, _, `Malformed m -> Error m

let cut_prefix ~max_bits (data : string) : string * int =
  let bits, pos, status = scan ~limit:max_bits data in
  let n = String.length data in
  match status with
  | `Truncated when Char.code data.[pos] land 0xc0 = 0x80 ->
      (* Torn (or over-limit) trailing LITERAL: the payload bytes that did
         arrive are the decoded bits themselves (LSB-first), so rewrite the
         token into a complete shorter literal instead of dropping it — for
         a small log that encodes as one literal token this is the
         difference between salvaging most of the log and salvaging
         nothing.  A torn or over-limit MATCH stays dropped: its missing
         high length chunks cannot be reconstructed conservatively, and a
         length past the limit is the corruption itself. *)
      let cnt = Char.code data.[pos] land 0x3f in
      let m = min (min cnt (8 * (n - pos - 1))) (max_bits - bits) in
      if m <= 0 then (String.sub data 0 pos, bits)
      else
        let b = Bytes.of_string (String.sub data 0 (pos + 1 + ((m + 7) / 8))) in
        Bytes.set b pos (Char.chr (0x80 lor m));
        (Bytes.unsafe_to_string b, bits + m)
  | _ -> (String.sub data 0 pos, bits)

(* ------------------------------------------------------------------ *)
(* Streaming reader *)

module Reader = struct
  type t = {
    data : string;
    nbits : int;
    mutable bytepos : int;
    mutable delivered : int;
    mutable hist : int;  (** last 8 decoded bits, bit0 = most recent *)
    mutable run_rem : int;
    mutable run_period : int;
    mutable lit_rem : int;
    mutable lit_base : int;
    mutable lit_idx : int;
    mutable lit_bytes : int;
  }

  let create (e : encoded) =
    {
      data = e.data;
      nbits = e.nbits;
      bytepos = 0;
      delivered = 0;
      hist = 0;
      run_rem = 0;
      run_period = 1;
      lit_rem = 0;
      lit_base = 0;
      lit_idx = 0;
      lit_bytes = 0;
    }

  (* shared so delivering a bit never allocates *)
  let some_true = Some true
  let some_false = Some false

  let deliver t bit =
    t.hist <- ((t.hist lsl 1) lor bit) land 0xff;
    t.delivered <- t.delivered + 1;
    if bit = 1 then some_true else some_false

  (* Next bit, or [None] when [nbits] bits were delivered — or on a
     malformed stream, which cannot happen on a payload the wire reader
     validated with {!count_bits}. *)
  let rec next t =
    if t.delivered >= t.nbits then None
    else if t.run_rem > 0 then begin
      t.run_rem <- t.run_rem - 1;
      deliver t ((t.hist lsr (t.run_period - 1)) land 1)
    end
    else if t.lit_rem > 0 then begin
      let b =
        (Char.code t.data.[t.lit_base + (t.lit_idx / 8)] lsr (t.lit_idx mod 8))
        land 1
      in
      t.lit_idx <- t.lit_idx + 1;
      t.lit_rem <- t.lit_rem - 1;
      if t.lit_rem = 0 then t.bytepos <- t.lit_base + t.lit_bytes;
      deliver t b
    end
    else if t.bytepos >= String.length t.data then None
    else begin
      let c = Char.code t.data.[t.bytepos] in
      if c land 0x80 <> 0 then
        if c land 0x40 <> 0 then None
        else
          let cnt = c land 0x3f in
          let nbytes = (cnt + 7) / 8 in
          if cnt = 0 || t.bytepos + 1 + nbytes > String.length t.data then None
          else begin
            t.lit_rem <- cnt;
            t.lit_base <- t.bytepos + 1;
            t.lit_idx <- 0;
            t.lit_bytes <- nbytes;
            next t
          end
      else begin
        let period = ((c lsr 4) land 0x7) + 1 in
        if t.delivered < period then None
        else begin
          let ok = ref true in
          let pos = ref (t.bytepos + 1) in
          let r = ref (c land 0x7) in
          let shift = ref 3 in
          let more = ref (c land 0x08 <> 0) in
          while !more && !ok do
            if !pos >= String.length t.data || !shift > 52 then ok := false
            else begin
              let b = Char.code t.data.[!pos] in
              incr pos;
              r := !r lor ((b land 0x7f) lsl !shift);
              shift := !shift + 7;
              more := b land 0x80 <> 0
            end
          done;
          if not !ok then None
          else begin
            t.run_period <- period;
            t.run_rem <- !r + 1;
            t.bytepos <- !pos;
            next t
          end
        end
      end
    end

  let pos t = t.delivered
end

(* ------------------------------------------------------------------ *)
(* Whole-log conversions *)

(** Decode to the raw packed log.  Strict and fail-closed: the whole token
    stream must parse and decode to exactly [e.nbits] bits.  [flushes] is
    carried over verbatim (it describes the field run's encoded-stream
    writes, the only flushes that happened). *)
let decode (e : encoded) : (Branch_log.log, string) result =
  match count_bits e.data with
  | Error m -> Error m
  | Ok total when total <> e.nbits ->
      Error
        (Printf.sprintf "encoded payload decodes to %d bit(s) but claims %d"
           total e.nbits)
  | Ok _ ->
      let out = Bytes.make ((e.nbits + 7) / 8) '\000' in
      let r = Reader.create e in
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        match Reader.next r with
        | Some b ->
            if b then begin
              let j = !i / 8 in
              Bytes.unsafe_set out j
                (Char.unsafe_chr
                   (Char.code (Bytes.unsafe_get out j) lor (1 lsl (!i mod 8))))
            end;
            incr i
        | None -> continue_ := false
      done;
      Ok
        { Branch_log.bytes = Bytes.unsafe_to_string out;
          nbits = e.nbits;
          flushes = e.flushes }

(** Re-encode a finished raw log (offline path: benches, the salvage
    round-trip tests).  Produces exactly the bytes the online encoder
    would have for the same bit sequence with no intermediate flushes. *)
let encode ?buffer_bytes (log : Branch_log.log) : encoded =
  let e = Encoder.create ?buffer_bytes () in
  for i = 0 to log.Branch_log.nbits - 1 do
    Encoder.add_bit e (Branch_log.get_bit log i)
  done;
  finish e
