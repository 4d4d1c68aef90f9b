(** Hand-rolled XML parser.

    Supports the XML subset needed by the AXML system: elements with
    attributes, character data, CDATA sections, comments, processing
    instructions (skipped), and the five predefined entities plus numeric
    character references. Namespace prefixes are kept as part of the
    element name (e.g. ["axml:call"]). DOCTYPE declarations are skipped
    without validation. *)

exception Error of { line : int; col : int; message : string }
(** Raised on malformed input, with a 1-based source position. *)

val max_depth : int
(** Elements nested more than this many levels deep (10,000; a root
    element is level 1) are rejected with {!Error} at the first element
    past the bound, so hostile nesting costs a bounded stack and fails
    fast instead of overflowing it. The bound matches
    [Axml_net.Wire.max_depth]. *)

val tree : string -> Tree.t
(** [tree s] parses [s] as a single XML document (one root element,
    possibly preceded/followed by misc). Raises {!Error}. *)

val forest : string -> Tree.forest
(** [forest s] parses a sequence of top-level trees (elements and
    character data), as exchanged in service call results. Raises
    {!Error}. *)

val tree_of_file : string -> Tree.t
(** [tree_of_file path] reads and parses a file. Raises {!Error} or
    [Sys_error]. *)

val error_to_string : exn -> string option
(** [error_to_string e] renders {!Error} payloads; [None] on other
    exceptions. *)
