(** Registry of symbolic input variables.

    Variables are identified by a stable string name derived from the input
    source — e.g. ["arg1[3]"] for byte 3 of argument 1, ["net0[17]"] for
    byte 17 of connection 0 — so that solver models are transferable across
    concolic runs. *)

type domain = { lo : int; hi : int }

(** [0, 255]: the domain of input bytes. *)
val byte_domain : domain

(** A wider domain for counters and lengths. *)
val int_domain : domain

type info = { id : int; name : string; dom : domain }

type t

val create : unit -> t

(** Number of registered variables. *)
val count : t -> int

(** [lookup t ~name ~dom] returns the id registered for [name], creating it
    with domain [dom] if new.  The domain of an existing variable is kept. *)
val lookup : t -> name:string -> dom:domain -> int

(** The variables of one input source — an argument's bytes, a stream's
    bytes, the results of one kind of system call — named [name 0],
    [name 1], … and interned by index, so that a member found before costs
    one array read instead of building its name and taking the registry's
    lock.  Ids stay those {!lookup} gives: a member is looked up by its name
    the first time it is asked for. *)
type family

(** [family t ~key name] is [t]'s family [key], whose member [i] is named
    [name i]; the family is made on the first call for [key], and later
    calls return it (and ignore their [name]). *)
val family : t -> key:string -> (int -> string) -> family

(** [member f i ~dom] is the id of [f]'s member [i] ([i >= 0]), registered
    with domain [dom] by {!lookup} on the first call. *)
val member : family -> int -> dom:domain -> int

(** Metadata of a variable; raises [Invalid_argument] on an unknown id. *)
val info : t -> int -> info

val name : t -> int -> string
val domain : t -> int -> domain
val find_by_name : t -> string -> int option
val iter : t -> (info -> unit) -> unit
