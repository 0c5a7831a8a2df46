type t = { mutable lat : float array; mutable n : int }

let create () = { lat = Array.make 1024 0.0; n = 0 }

let push l ns =
  if l.n = Array.length l.lat then begin
    let bigger = Array.make (2 * l.n) 0.0 in
    Array.blit l.lat 0 bigger 0 l.n;
    l.lat <- bigger
  end;
  l.lat.(l.n) <- float_of_int ns;
  l.n <- l.n + 1

let to_array l = Array.sub l.lat 0 l.n
