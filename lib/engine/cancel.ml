type t = {
  probe : unit -> bool;
  reason : string;
  mutable fired : bool;
}

exception Cancelled of string

let never = { probe = (fun () -> false); reason = "cancelled"; fired = false }

let of_probe ?(reason = "cancelled") probe = { probe; reason; fired = false }

let cancelled t =
  t.fired
  ||
  if t.probe () then begin
    t.fired <- true;
    true
  end
  else false

let reason t = t.reason

let check t = if cancelled t then raise (Cancelled t.reason)
