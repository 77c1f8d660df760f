module Value = Relational.Value
module Cursor = Relational.Database.Cursor
module Datatype = Relational.Datatype

module type S = sig
  type row

  val hash : row -> int -> int
  val compare : row -> int -> Value.t -> int
  val compare_cells : row -> int -> int -> int
  val equal : Column.t -> int -> row -> int -> bool
  val append : Column.t -> row -> int -> unit
  val append_scaled : Column.t -> row -> int -> int -> unit
  val add : Column.t -> int -> row -> int -> int -> unit
  val combine_ext : Column.t -> int -> row -> int -> is_min:bool -> unit
  val is_numeric : row -> int -> bool
  val is_null : row -> int -> bool
  val value : row -> int -> Value.t
end

module Tuple = struct
  type row = Relational.Tuple.t

  let hash (tup : row) pos = Value.hash tup.(pos)
  let compare (tup : row) pos v = Value.compare tup.(pos) v
  let compare_cells (tup : row) i j = Value.compare tup.(i) tup.(j)
  let equal col r (tup : row) pos = Column.equal_cell col r tup.(pos)
  let append col (tup : row) pos = Column.append col tup.(pos)
  let append_scaled col (tup : row) pos n = Column.append col (Value.scale tup.(pos) n)
  let add col r (tup : row) pos n = Column.add_cell col r tup.(pos) n

  let combine_ext col r (tup : row) pos ~is_min =
    Column.combine_ext col r tup.(pos) ~is_min

  let is_numeric (tup : row) pos = Value.is_numeric tup.(pos)
  let is_null (tup : row) pos = Value.is_null tup.(pos)
  let value (tup : row) pos = tup.(pos)
end

module Stored = struct
  type row = Cursor.t

  let hash = Cursor.hash
  let compare = Cursor.compare
  let compare_cells = Cursor.compare_cells
  let equal = Column.equal_stored
  let append = Column.append_stored
  let append_scaled = Column.append_scaled_stored
  let add = Column.add_stored
  let combine_ext = Column.combine_ext_stored
  let is_numeric (cur : row) pos = Datatype.is_numeric cur.types.(pos)

  (* the shadow holds no NULL *)
  let is_null _ _ = false
  let value = Cursor.cell
end
