(** Persistent B+tree with string keys and values (length-prefixed
    blobs): ordered scans and range queries for {!Sorted_db}.  Fanout
    8, values in chained leaves, proactive splits, lazy deletion. *)

module Make (P : Romulus.Ptm_intf.S) : sig
  type t

  val create : P.t -> root:int -> t
  val attach : P.t -> root:int -> t
  val open_or_create : P.t -> root:int -> t

  (** Insert or overwrite; true when the key was new. *)
  val put : t -> string -> string -> bool

  val get : t -> string -> string option
  val mem : t -> string -> bool
  val remove : t -> string -> bool
  val length : t -> int

  (** Ascending-key fold / iteration over all bindings. *)
  val fold : t -> ('a -> string -> string -> 'a) -> 'a -> 'a

  val iter : t -> (string -> string -> unit) -> unit
  val to_list : t -> (string * string) list

  (** Ascending fold over bindings with [lo <= key <= hi]. *)
  val fold_range :
    t -> lo:string -> hi:string -> ('a -> string -> string -> 'a) -> 'a -> 'a

  val check : t -> (unit, string) result
end
