(** Registry of symbolic input variables.

    Variables are identified by a stable string name derived from the input
    source — e.g. ["arg1[3]"] for byte 3 of argument 1, ["net0[17]"] for byte
    17 of connection 0, ["sys:read#2"] for the result of the second [read]
    call.  Requesting the same name twice yields the same id, which is what
    makes solver models transferable across concolic runs.

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
  mu : Mutex.t;
}

let create () = { infos = Array.make 64 { id = 0; name = ""; dom = byte_domain };
                  count = 0; by_name = Hashtbl.create 64; mu = Mutex.create () }

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

(** [lookup t ~name ~dom] returns the id registered for [name], creating it
    with domain [dom] if new.  The domain of an existing variable is kept. *)
let lookup t ~name ~dom =
  locked t (fun () ->
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
          id)

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
