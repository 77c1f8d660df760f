(** Changes to base tables, as emitted by the (simulated) data sources.

    Updates carry both the old and new tuple: the maintenance algorithms of
    the paper propagate {e exposed} updates as a deletion followed by an
    insertion (Section 2.1), and need the before-image to do so. *)

type change =
  | Insert of Tuple.t
  | Delete of Tuple.t
  | Update of { before : Tuple.t; after : Tuple.t }

(** A change to one named base table. *)
type t = { table : string; change : change }

val insert : string -> Tuple.t -> t
val delete : string -> Tuple.t -> t
val update : string -> before:Tuple.t -> after:Tuple.t -> t

(** [invert d] is the change that undoes [d]: inserts become deletes and
    vice versa, updates swap their before and after images. Applying the
    inverses of a history in reverse order restores the original state. *)
val invert : t -> t

(** [as_delete_insert c] splits an update into its deletion and insertion
    parts; inserts/deletes are returned unchanged (singleton list). *)
val as_delete_insert : change -> change list

(** Columns (by index) whose value differs between before and after image.
    Empty for inserts/deletes. *)
val changed_indices : change -> int list

val pp : Format.formatter -> t -> unit

(** {2 Rejections}

    A change the warehouse refuses to ingest, with a machine-readable
    reason. Produced by {!Database.admit} (constraint checks against the
    validator's shadow of the source) and by the warehouse's transactional
    apply ([Engine_failure]); rejected changes land in the warehouse's
    dead-letter queue. *)

type reason =
  | Unknown_table  (** the named base table does not exist *)
  | Schema_mismatch  (** wrong arity or column type *)
  | Duplicate_key  (** insert (or key update) collides with an existing key *)
  | Missing_row  (** delete/update of a tuple that is not present *)
  | Dangling_reference  (** a foreign key has no referent *)
  | Referenced_key  (** delete/key-update of a still-referenced key *)
  | Not_updatable  (** update touches a column not declared UPDATABLE *)
  | Engine_failure
      (** the batch was valid but an engine failed mid-apply; the whole
          batch was rolled back and quarantined *)

type rejection = { delta : t; reason : reason; detail : string }

(** Stable kebab-case tag of a reason (for logs and machine consumption). *)
val reason_label : reason -> string

val pp_rejection : Format.formatter -> rejection -> unit
