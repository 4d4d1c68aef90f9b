(** Readiness notification for the event-loop server: epoll(7) on Linux
    (via a tiny C stub — no fd-value cap, O(ready) wakeups), a
    [Unix.select] fallback elsewhere.

    One {!t} is owned by exactly one thread and nothing here is
    thread-safe, by design: a worker thread that wants to wake the loop
    writes one byte to a pipe whose read end is registered like any
    other fd. *)

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

type t

val create : ?force_select:bool -> unit -> t
(** Picks epoll when available unless [force_select] (default false)
    demands the portable backend (used by tests to cover both). *)

val backend_name : t -> string
(** ["epoll"] or ["select"]. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Registers [fd]. Raises [Invalid_argument] if already registered,
    [Failure] on the select backend for fd values at or beyond
    FD_SETSIZE (1024) — the hard cap epoll exists to remove. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Changes the interest set of a registered fd. No-op when the bits
    are unchanged. *)

val remove : t -> Unix.file_descr -> unit
(** Deregisters [fd]; forgiving of fds that were never added. Call
    {e before} closing the fd. *)

val wait : t -> timeout:float -> event list
(** Blocks up to [timeout] seconds (negative = forever) and returns the
    ready fds with their readiness. EINTR returns [[]]. The runtime
    lock is released while blocking, so worker threads keep running. *)

val close : t -> unit
(** Releases the epoll fd (if any) and clears the interest table. *)
