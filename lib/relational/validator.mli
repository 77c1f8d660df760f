(** Delta validation against a shadow of the source.

    The warehouse never re-reads the operational store after the initial
    extract, so it cannot ask the store whether an incoming change is legal.
    The validator therefore keeps a {e shadow}: a private replica of the
    source, captured at warehouse creation and advanced one accepted change
    at a time. Every incoming delta is checked against the shadow — schema
    conformance, key uniqueness, referential integrity, declared updatable
    columns, presence of before-images — {e before} any maintenance engine
    sees it, turning would-be mid-apply exceptions into structured
    {!Delta.rejection}s that the warehouse can quarantine. *)

type t

(** [of_database db] snapshots [db] as the shadow. The copy is private:
    later mutations of [db] are invisible to the validator. *)
val of_database : Database.t -> t

(** [of_shadow db] takes [db] itself as the shadow, without a copy: for a
    store no one else holds, such as one a snapshot just restored. *)
val of_shadow : Database.t -> t

(** {2 Batch transactions}

    [begin_txn] opens an undo journal, {!admit} records every accepted
    delta in it, and [rollback] replays their inverses (newest first)
    against the shadow — undoing exactly the admitted prefix of the batch
    without copying the shadow. *)

(** Whether a journal is open. *)
val in_txn : t -> bool

(** Opens a journal. Raises [Invalid_argument] if one is already open. *)
val begin_txn : t -> unit

(** Discards the journal, keeping the admitted changes. Raises
    [Invalid_argument] if no transaction is open. *)
val commit : t -> unit

(** Undoes every delta admitted since [begin_txn] and closes the journal.
    Raises [Invalid_argument] if no transaction is open. *)
val rollback : t -> unit

(** A private copy of the shadow: the warehouse's belief of the current
    source contents (initial snapshot + every accepted delta). *)
val believed_source : t -> Database.t

(** The shadow itself, not a copy, for callers that only read it (engine
    initialization): a mutation through it would change what the validator
    believes. *)
val shadow : t -> Database.t

(** [admit v d] validates [d] against the shadow and, on success, applies
    it so subsequent changes are checked against the advanced state. It is
    one pass of {!Database.admit}: every check runs once, before any
    mutation, so a rejected [d] leaves the shadow exactly as it was. *)
val admit : t -> Delta.t -> (Delta.t, Delta.rejection) result
