(** Append-only interned string dictionaries for dictionary-encoded columns.

    A dictionary maps each distinct string to a dense [int] code and back.
    Codes are append-only: once assigned, a code's string never changes, so
    columnar cells can store the code and decode lazily. Dictionaries are
    shared per (table, column) through a {!pool}, so the root auxiliary
    view, the dimension auxiliary views and the view state all intern e.g.
    "product.brand" values once.

    Concurrency: {!intern} takes a mutex (writers are the batch apply and
    the engine builds of load and recovery, which may run on several
    domains). {!decode},
    {!hash} and {!size} are lock-free: the backing arrays are published with
    [Atomic.set] before the size bump, and readers load the size first, so
    any code below the observed size reads fully-initialized slots (the
    OCaml 5 memory model's release/acquire pairing on atomics). *)

type t

(** A fresh private dictionary (used when a column is not pooled). *)
val create : unit -> t

(** [intern d s] returns the code of [s], assigning the next free code on
    first sight. Thread-safe. *)
val intern : t -> string -> int

(** [decode d c] is the string of code [c]. Lock-free.
    @raise Invalid_argument if [c] was never assigned. *)
val decode : t -> int -> string

(** [hash d c] is [Relational.Value.hash (String (decode d c))], precomputed
    at intern time so probe paths never re-hash the string. Lock-free. *)
val hash : t -> int -> int

(** Number of assigned codes. Lock-free. *)
val size : t -> int

(** Heap bytes held by the dictionary: both tables, the code/hash arrays and
    the interned strings themselves. *)
val byte_size : t -> int

(** {2 Pools}

    One pool per maintenance engine; dictionaries are keyed by
    ["table.column"] so every state storing the same base column shares one
    dictionary. Pool lookup is not thread-safe — states are created during
    serial engine initialization. *)

type pool

val create_pool : unit -> pool

(** [shared pool ~table ~column] is the pooled dictionary for
    [table.column], created on first request. *)
val shared : pool -> table:string -> column:string -> t
