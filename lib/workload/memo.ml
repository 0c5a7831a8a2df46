type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  mu : Mutex.t;
  bound : int;
}

let create ~bound = { table = Hashtbl.create 8; mu = Mutex.create (); bound }

let find_or_build t key build =
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.table key) with
  | Some v -> v
  | None ->
    let v = build () in
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some winner -> winner
        | None ->
          if Hashtbl.length t.table >= t.bound then Hashtbl.reset t.table;
          Hashtbl.add t.table key v;
          v)
