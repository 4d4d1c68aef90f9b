(* A minimal readiness-notification loop: epoll on Linux (no fd-value
   cap, O(ready) wakeups), Unix.select elsewhere (or when forced). One
   Evloop.t is owned by exactly one thread; none of this is
   thread-safe, by design — cross-thread wakeups go through a pipe
   registered like any other fd. *)

external epoll_available : unit -> bool = "axml_epoll_available"
external epoll_create : unit -> Unix.file_descr = "axml_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "axml_epoll_ctl"

external epoll_wait : Unix.file_descr -> int -> (Unix.file_descr * int) array
  = "axml_epoll_wait"

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

type backend = Epoll of Unix.file_descr | Select

type t = {
  backend : backend;
  interest : (Unix.file_descr, int) Hashtbl.t;
      (* fd -> event bits (1 = read, 2 = write). The select backend
         walks this to build its fd sets; the epoll backend keeps it as
         a mirror so [modify] of an unregistered fd fails loudly on
         both backends. *)
}

let create ?(force_select = false) () =
  let backend =
    if (not force_select) && epoll_available () then Epoll (epoll_create ())
    else Select
  in
  { backend; interest = Hashtbl.create 64 }

let backend_name t = match t.backend with Epoll _ -> "epoll" | Select -> "select"

let bits ~read ~write = (if read then 1 else 0) lor if write then 2 else 0

(* The select(2) fd_set is indexed by fd *value*: anything at or above
   FD_SETSIZE is out of reach. Fail when a fd is registered, not
   somewhere inside the wait. *)
let fd_setsize = 1024

let check_select_fd fd =
  let n : int = Obj.magic (fd : Unix.file_descr) in
  if n >= fd_setsize then
    failwith
      (Printf.sprintf
         "Evloop(select): fd %d is beyond FD_SETSIZE (%d) — this platform needs the \
          epoll backend for this many connections"
         n fd_setsize)

let add t fd ~read ~write =
  if Hashtbl.mem t.interest fd then invalid_arg "Evloop.add: fd already registered";
  let b = bits ~read ~write in
  (match t.backend with
  | Epoll ep -> epoll_ctl ep 0 fd b
  | Select -> check_select_fd fd);
  Hashtbl.replace t.interest fd b

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.interest fd with
  | None -> invalid_arg "Evloop.modify: fd not registered"
  | Some old ->
    let b = bits ~read ~write in
    if b <> old then begin
      (match t.backend with Epoll ep -> epoll_ctl ep 1 fd b | Select -> ());
      Hashtbl.replace t.interest fd b
    end

let remove t fd =
  if Hashtbl.mem t.interest fd then begin
    (match t.backend with
    | Epoll ep -> (
      (* a closed fd is already gone from the epoll set *)
      try epoll_ctl ep 2 fd 0 with Failure _ -> ())
    | Select -> ());
    Hashtbl.remove t.interest fd
  end

let wait t ~timeout =
  match t.backend with
  | Epoll ep ->
    let ms =
      if timeout < 0.0 then -1
      else int_of_float (Float.round (timeout *. 1000.0))
    in
    Array.fold_left
      (fun acc (fd, b) ->
        (* a fd removed by an earlier handler in the same drain could
           in principle resurface from the kernel buffer; interest is
           the source of truth *)
        if Hashtbl.mem t.interest fd then
          { fd; readable = b land 1 <> 0; writable = b land 2 <> 0 } :: acc
        else acc)
      []
      (epoll_wait ep ms)
  | Select -> (
    let rs, ws =
      Hashtbl.fold
        (fun fd b (rs, ws) ->
          ((if b land 1 <> 0 then fd :: rs else rs), if b land 2 <> 0 then fd :: ws else ws))
        t.interest ([], [])
    in
    match Unix.select rs ws [] timeout with
    | rs', ws', _ ->
      let tbl = Hashtbl.create 16 in
      List.iter (fun fd -> Hashtbl.replace tbl fd 1) rs';
      List.iter
        (fun fd ->
          Hashtbl.replace tbl fd (2 lor (try Hashtbl.find tbl fd with Not_found -> 0)))
        ws';
      Hashtbl.fold
        (fun fd b acc -> { fd; readable = b land 1 <> 0; writable = b land 2 <> 0 } :: acc)
        tbl []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])

let close t =
  Hashtbl.reset t.interest;
  match t.backend with
  | Epoll ep -> ( try Unix.close ep with Unix.Unix_error _ -> ())
  | Select -> ()
