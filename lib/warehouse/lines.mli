(** A view's rows rendered as the body of a QUERY response: one string of
    [mult<TAB>cell...<LF>] lines in the rows' order, each cell the bytes of
    [Value.to_string], plus the offset where each line starts. An epoch
    carries them for every view a reader has asked for, so a read copies
    bytes and renders nothing, and a publication renders only the rows its
    batch touched ({!render}). *)

type t

(** [render ~scratch ?prev rows] is the lines of [rows] (canonical order, as
    an epoch holds them). With [prev = (rows', lines')] the lines of an
    earlier publication, a row of [rows] that is physically a row of [rows']
    ([==]) takes its line from [lines'], consecutive ones copied as one
    run; every other row is rendered. The two arrays are diffed by identity
    alone, looking a few rows ahead, so no row is read but the rendered
    ones: this finds every shared row when [rows] keeps the shared rows of
    [rows'] in their order and a re-rendered row near its old place, as
    {!Maintenance.View_state.publish} does; otherwise more rows are
    rendered, never a wrong line. [scratch] stages the body (cleared
    first), which is then copied out in one allocation of its exact
    size. *)
val render :
  scratch:Buffer.t ->
  ?prev:(Relational.Tuple.t * int) array * t ->
  (Relational.Tuple.t * int) array ->
  t

(** The lines, concatenated. *)
val body : t -> string

(** Number of lines. *)
val count : t -> int
