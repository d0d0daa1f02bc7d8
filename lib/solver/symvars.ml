(** Registry of symbolic input variables.

    Variables are identified by a stable string name derived from the input
    source — e.g. ["arg1[3]"] for byte 3 of argument 1, ["net0[17]"] for byte
    17 of connection 0, ["sys:read#2"] for the result of the second [read]
    call.  Requesting the same name twice yields the same id, which is what
    makes solver models transferable across concolic runs.

    The variables of one input source form a {!family}, interned by
    index: a member found before costs one array read, with no name built
    and no lock taken.

    The registry is shared by every run of an exploration.  A search
    extends it from one domain only; all access still goes through an
    internal mutex, so a registry stays safe to read from another domain
    (the triage pool hands each cluster's registry back with its model). *)

type domain = { lo : int; hi : int }

let byte_domain = { lo = 0; hi = 255 }
let int_domain = { lo = -65536; hi = 65536 }

type info = { id : int; name : string; dom : domain }

type t = {
  mutable infos : info array;
  mutable count : int;
  by_name : (string, int) Hashtbl.t;
  families : (string, family) Hashtbl.t;
  mu : Mutex.t;
}

(* The members of one input source, interned by index: [ids.(i)] is the id
   of member [i], or [-1] before its first lookup.  Written under the
   registry's mutex and read without it: a reader that sees a stale [-1] or
   a stale array takes the locked path, and a set id never changes. *)
and family = {
  reg : t;
  member_name : int -> string;
  mutable ids : int array;
}

let create () = { infos = Array.make 64 { id = 0; name = ""; dom = byte_domain };
                  count = 0; by_name = Hashtbl.create 64;
                  families = Hashtbl.create 8; mu = Mutex.create () }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let count t = locked t (fun () -> t.count)

(* Called with [t.mu] held. *)
let lookup_locked t ~name ~dom =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> id
  | None ->
      let id = t.count in
      if id = Array.length t.infos then begin
        let bigger = Array.make (2 * id) t.infos.(0) in
        Array.blit t.infos 0 bigger 0 id;
        t.infos <- bigger
      end;
      t.infos.(id) <- { id; name; dom };
      t.count <- id + 1;
      Hashtbl.replace t.by_name name id;
      id

(** [lookup t ~name ~dom] returns the id registered for [name], creating it
    with domain [dom] if new.  The domain of an existing variable is kept. *)
let lookup t ~name ~dom = locked t (fun () -> lookup_locked t ~name ~dom)

let family t ~key member_name =
  locked t (fun () ->
      match Hashtbl.find_opt t.families key with
      | Some f -> f
      | None ->
          let f = { reg = t; member_name; ids = [||] } in
          Hashtbl.replace t.families key f;
          f)

let member_slow f i ~dom =
  let t = f.reg in
  locked t (fun () ->
      if i >= Array.length f.ids then begin
        let grown = Array.make (max 16 (2 * (i + 1))) (-1) in
        Array.blit f.ids 0 grown 0 (Array.length f.ids);
        f.ids <- grown
      end;
      match f.ids.(i) with
      | -1 ->
          let id = lookup_locked t ~name:(f.member_name i) ~dom in
          f.ids.(i) <- id;
          id
      | id -> id)

let member f i ~dom =
  let ids = f.ids in
  if i >= 0 && i < Array.length ids && Array.unsafe_get ids i >= 0 then
    Array.unsafe_get ids i
  else if i < 0 then invalid_arg "Symvars.member: negative index"
  else member_slow f i ~dom

let info t id =
  locked t (fun () ->
      if id < 0 || id >= t.count then invalid_arg "Symvars.info: bad id"
      else t.infos.(id))

let name t id = (info t id).name
let domain t id = (info t id).dom

let find_by_name t name = locked t (fun () -> Hashtbl.find_opt t.by_name name)

let iter t f =
  (* snapshot under the lock, call back outside it: [f] may itself use [t] *)
  let snapshot = locked t (fun () -> Array.sub t.infos 0 t.count) in
  Array.iter f snapshot
