type point =
  | After_wal_append
  | Mid_engine_apply
  | Wal_fsync

type mode = Kill | Fail

exception Crash of point
exception Injected of point

let all = [ After_wal_append; Mid_engine_apply; Wal_fsync ]

let to_string = function
  | After_wal_append -> "after-wal-append"
  | Mid_engine_apply -> "mid-engine-apply"
  | Wal_fsync -> "wal-fsync"

let of_string s = List.find_opt (fun p -> String.equal (to_string p) s) all

(* armed point, failure mode, and number of hits to survive before firing *)
let state : (point * mode * int ref) option ref = ref None

let arm ?(skip = 0) ?(mode = Kill) point = state := Some (point, mode, ref skip)
let disarm () = state := None

let hit point =
  match !state with
  | Some (p, mode, remaining) when p = point ->
    if !remaining = 0 then begin
      (* disarm first: recovery code running in the same process after the
         simulated fault must not trip again at the same point *)
      disarm ();
      (* registered lazily — faults are rare and injected *)
      Telemetry.Counter.one
        (Telemetry.Counter.make
           ~labels:
             [
               ("point", to_string point);
               ("mode", match mode with Kill -> "kill" | Fail -> "fail");
             ]
           ~help:"Injected faults raised at this crash point"
           "minview_faults_crashes_total");
      match mode with
      | Kill -> raise (Crash point)
      | Fail -> raise (Injected point)
    end
    else decr remaining
  | Some _ | None -> ()
