(* The degree is a process-wide setting read once per map; every
   domain a map spawns is joined before the map returns. *)

let requested = ref 1

let set_jobs n = requested := max 1 n
let get_jobs () = !requested

let map_list f xs =
  let jobs = !requested in
  if jobs <= 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Each executor claims the next unclaimed index until none is
       left; a slot is written by exactly one executor. *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some (match f items.(i) with y -> Ok y | exception e -> Error e);
        work ()
      end
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers;
    (* Left to right, so the lowest-index failure is the one raised. *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok y) -> y
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end
