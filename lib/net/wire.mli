(** The AXML peer wire protocol.

    Peers exchange {e frames}: a 4-byte big-endian length followed by
    that many payload bytes. The payload is compact {!Axml_obs.Json} —
    the same hand-rolled JSON the observability sinks use, so the whole
    protocol needs no dependency beyond [Unix] — or, when both ends
    advertise the {!cap_binary} capability, the length-prefixed binary
    codec ({!Binary}). Both codecs derive from one description per wire
    type (see {!type-t}). {!max_frame} fits in 26 bits, so the top bit of
    the first header byte is free: binary frames set it and are
    self-describing; JSON frames (including everything a pre-binary
    peer can produce) leave it clear. One message per frame; the
    protocol is strictly request/response over one connection.

    A connection opens with a version handshake ({!Hello} from the
    client, {!Welcome} from the server, which also advertises the served
    registry), then carries any number of {!Invoke} requests: service
    calls, the only thing peers exchange. An {!Invoke} names a service,
    ships its parameter forest and optionally a pushed [sub_q_v] tree
    pattern (§7 of the paper); the server answers {!Result} (with the
    forest, pruned by the provider when it ran the pushed pattern),
    {!Error} (carrying a transient flag so clients know whether to
    retry) or {!Degraded} (the server's own retry budget against its
    backends was exhausted: the client should degrade gracefully, not
    retry).

    Trees and patterns are encoded structurally (not as embedded XML
    text), so forests round-trip {e exactly} — including whitespace-only
    text leaves the XML parser would drop.

    {b Per-connection state.} On a connection where both ends advertised
    {!cap_push_reuse}, each end remembers one pattern: the most recent
    one an {!Invoke} on that connection carried in full. A later call
    with the same pattern is sent as {!Invoke_same_push}, whose one-byte
    marker stands for the remembered pattern. An {!Invoke} without a
    pattern leaves the slot as it is; a fresh connection starts with it
    empty.

    On a binary connection where both ends advertised {!cap_labels},
    each direction also keeps a {e label table}: the element names,
    attribute names and values, and {!Invoke} service names its binary
    frames carried. The first occurrence of such a string goes out in
    full and joins the table (while the table has fewer than
    {!max_labels} entries and the string is at most {!max_label_bytes}
    long); later ones go out as the index of their entry. Text nodes,
    pattern labels and JSON frames never use it. A table never evicts,
    and a fresh connection starts with both empty. The pattern slot and
    the two label tables are the protocol's only state besides the
    handshake. *)

val version : int
(** The protocol version sent in {!Hello} / {!Welcome}; peers must
    match exactly. Optional features ride the handshake as {e
    capabilities} instead: opaque strings listed in both [Hello] and
    [Welcome], so either side uses a feature only when the other
    advertised it. Pre-capability peers encode no ["caps"] field and
    decode to the empty list — negotiation degrades to "none" and the
    wire format they see is unchanged. *)

val cap_shard : string
(** Capability: this peer is shard-aware — its {!Welcome} service list
    is a complete advertisement, safe for the scheduler's replica
    discovery (grouping identical advertisements from several peers into
    replica sets) and static shard assignment. No wire-format change
    rides on it; pre-shard peers simply don't advertise it and are
    treated as single, non-replicated owners. *)

val cap_binary : string
(** Capability: this peer speaks the binary codec. The handshake
    ({!Hello}/{!Welcome}) is always JSON; once both sides have
    advertised [cap_binary], either end may encode subsequent frames
    with {!Binary} (the flag bit in the header tells the receiver,
    frame by frame). Peers that never advertise it see pure JSON —
    byte-for-byte the pre-binary protocol. *)

val cap_push_reuse : string
(** Capability: this peer keeps the per-connection pattern slot
    described above. Once both sides have advertised it, a client may
    send {!Invoke_same_push} instead of repeating a pattern. It works in
    either codec. A server that receives the marker with an empty slot
    (or on a connection where the capability was not negotiated)
    answers a non-transient {!Error} and keeps serving. Peers that
    never advertise it see every frame exactly as before. *)

val cap_labels : string
(** Capability: this peer keeps the per-direction label tables
    described above. They are used only on a connection where both
    ends advertised both this and {!cap_binary}, and then for every
    binary frame after the handshake, in each direction. In a frame,
    such a string is one varint [2·len] followed by its bytes
    (a literal), or [2·i+1] (entry [i] of the table). A reference past
    the end of the receiver's table is a {!Protocol_error}. Peers that
    never advertise it see every frame exactly as before. *)

val max_frame : int
(** Frames above this many payload bytes (64 MiB) are rejected with
    {!Protocol_error} before any allocation. *)

val max_depth : int
(** Trees and patterns nested more than this many levels (10,000; a
    lone text leaf or pattern node is one level) are rejected with
    {!Protocol_error} while decoding, in both codecs, so a hostile
    frame's nesting costs a bounded stack. Encoding does not check it. *)

val max_labels : int
(** A label table (see {!cap_labels}) holds at most this many strings
    (256). Once full, it keeps its entries and every further new
    string goes out in full without joining it. *)

val max_label_bytes : int
(** Only strings of at most this many bytes (64) join a label table;
    longer ones always go out in full. With {!max_labels}, this bounds
    a table at 16 KiB of strings, whatever the peer sends. *)

exception Protocol_error of string
(** Malformed frame or envelope: bad length prefix, oversized frame,
    JSON that does not parse, or an envelope that does not decode. *)

exception Closed
(** The peer closed the connection (EOF mid-frame or before one). *)

(** {2 Codecs}

    Each wire type is described once, by an ['a t]; its JSON and binary
    codecs both derive from that one description. The binary codec is
    the compact one: one-byte tags, length-prefixed strings, LEB128
    varints (zigzag where values can be negative). Decoding is strict in
    both: a JSON member present with the wrong type is a
    {!Protocol_error} (only an absent optional member decodes to its
    default); every binary read is bounds-checked, every length/count is
    capped by the bytes remaining, and nesting past {!max_depth} raises
    {!Protocol_error}. *)

type 'a t

val tree : Axml_xml.Tree.t t
val forest : Axml_xml.Tree.forest t

val pattern : Axml_query.Pattern.node t
(** The decoded pattern carries fresh pids (pattern nodes are allocated
    from a global counter); axes, labels, result flags and structure
    round-trip exactly. *)

val to_json : 'a t -> 'a -> Axml_obs.Json.t

val of_json : 'a t -> Axml_obs.Json.t -> 'a
(** Raises {!Protocol_error}. *)

val to_binary : 'a t -> 'a -> string

val of_binary : 'a t -> string -> 'a
(** Raises {!Protocol_error} (also on trailing bytes). *)

type codec = Json | Binary

val codec_name : codec -> string
(** ["json"] / ["binary"] — the values the CLI's [--wire] flag takes. *)

(** {2 Envelopes} *)

type service_info = { name : string; push : bool }

type message =
  | Hello of { version : int; caps : string list }
  | Welcome of { version : int; services : service_info list; caps : string list }
  | Invoke of {
      id : int;
      service : string;
      params : Axml_xml.Tree.forest;
      push : Axml_query.Pattern.node option;
    }
  | Invoke_same_push of { id : int; service : string; params : Axml_xml.Tree.forest }
      (** An {!Invoke} whose pushed pattern is the one this connection
          last carried in full (see {!cap_push_reuse}). It is the same
          envelope as [Invoke] with the marker in place of the pattern:
          the binary push byte reads 2 instead of 1 and a pattern, the
          JSON ["push"] member is the string ["same"]. *)
  | Result of { id : int; pushed : bool; forest : Axml_xml.Tree.forest }
  | Error of { id : int; transient : bool; message : string }
  | Degraded of { id : int; message : string; retries : int; timeouts : int }

val message_to_json : message -> Axml_obs.Json.t
val message_of_json : Axml_obs.Json.t -> message
(** Raises {!Protocol_error} on unknown or malformed envelopes. *)

(** {2 Frame I/O}

    All functions handle partial reads/writes and EINTR; other [Unix]
    errors (including the EAGAIN a socket deadline raises) propagate to
    the caller. Byte counts include the 4-byte header — they are what
    the cost accounting reports as wire traffic. *)

type scratch
(** Per-connection reusable encode/decode buffers. A hot connection
    that threads one scratch through every {!send}/{!recv} allocates no
    fresh frame buffers after warm-up — the backing storage amortises to
    the largest frame the connection has seen. A scratch belongs to one
    connection at a time; it is not thread-safe. *)

val scratch : ?labels:bool -> unit -> scratch
(** With [labels] (default false), the scratch also holds the
    connection's two label tables (see {!cap_labels}), both empty: every
    binary frame encoded into it or decoded through it uses them.
    Create it so only for a connection that negotiated the capability,
    and thread every binary frame of that connection through it, in
    order. *)

val encode_frame : ?codec:codec -> message -> string
(** The complete frame — header included — as it would appear on the
    wire. [codec] defaults to [Json]. Raises {!Protocol_error} if the
    payload exceeds {!max_frame}. *)

val encode_frame_into : ?codec:codec -> scratch -> message -> Bytes.t * int
(** Like {!encode_frame} but into the scratch's reusable buffer:
    [(backing, frame_length)]. The bytes are valid until the next
    encode or {!send} on the same scratch. A binary frame goes through
    the scratch's outgoing label table, if it has one; if the frame
    fails to encode (it exceeds {!max_frame}), the table is truncated
    back to what it held before, so the frame sent in its place finds
    it as the peer does. *)

val decode_frame_header : string -> codec * int
(** Inspects the first 4 bytes: the payload codec and length. Raises
    {!Protocol_error} on truncation or a length outside
    [(0, max_frame]]. *)

val decode_payload : ?scratch:scratch -> ?pos:int -> ?len:int -> codec -> string -> message
(** Decodes one payload from [s.[pos .. pos+len-1]] ([pos] defaults to
    0, [len] to the rest of the string). A binary payload goes through
    the incoming label table of [scratch], if it has one. Raises
    {!Protocol_error} on malformed bytes, unknown tags, trailing garbage
    or a label reference past the table's end. *)

val send : ?codec:codec -> ?scratch:scratch -> Unix.file_descr -> message -> int
(** [codec] defaults to [Json]. Without a [scratch], fresh buffers are
    allocated per call (the pre-binary behavior) and no label table is
    used. *)

val recv : ?scratch:scratch -> Unix.file_descr -> message * int
(** Auto-detects the codec from the header flag, so a receiver needs no
    out-of-band negotiation state beyond the [scratch]'s label table. *)
