type 'a job = { name : string; run : unit -> 'a }

let job ~name run = { name; run }

exception Job_failed of string * exn

let default_jobs () = max 1 (Domain.recommended_domain_count ())
let clamp_jobs jobs = max 1 (min jobs (default_jobs ()))

(* Each result slot is written by exactly one worker (slots are claimed
   through the atomic cursor), and [Domain.join] publishes those writes to
   the collecting domain, so the plain array needs no further
   synchronization. *)
let run ?jobs js =
  let items = Array.of_list js in
  let n = Array.length items in
  let jobs =
    match jobs with Some j -> j | None -> default_jobs ()
  in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    List.map (fun j -> try j.run () with e -> raise (Job_failed (j.name, e))) js
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let r = try Ok (items.(i).run ()) with e -> Error e in
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    let workers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join workers;
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some (Ok v) -> v
           | Some (Error e) -> raise (Job_failed (items.(i).name, e))
           | None -> assert false)
         results)
  end
