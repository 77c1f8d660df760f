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
  let is_numeric (cur : row) pos = Datatype.is_numeric cur.types.(pos)

  (* the shadow holds no NULL *)
  let is_null _ _ = false
  let value = Cursor.cell
end
