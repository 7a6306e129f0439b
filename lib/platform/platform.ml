type memory = Blue | Red

let other = function Blue -> Red | Red -> Blue
let memory_to_string = function Blue -> "blue" | Red -> "red"
let pp_memory ppf m = Format.pp_print_string ppf (memory_to_string m)
let memories = [ Blue; Red ]

type t = { p_blue : int; p_red : int; m_blue : float; m_red : float }

let make ~p_blue ~p_red ~m_blue ~m_red =
  if p_blue <= 0 || p_red <= 0 then invalid_arg "Platform.make: processor counts must be positive";
  (* +infinity is a legal "unbounded" capacity, NaN never is. *)
  Fp.check_not_nan ~what:"Platform.make: memory capacity" m_blue;
  Fp.check_not_nan ~what:"Platform.make: memory capacity" m_red;
  if m_blue < 0. || m_red < 0. then invalid_arg "Platform.make: negative memory capacity";
  { p_blue; p_red; m_blue; m_red }

let unbounded ~p_blue ~p_red = make ~p_blue ~p_red ~m_blue:infinity ~m_red:infinity
let with_bounds p ~m_blue ~m_red = make ~p_blue:p.p_blue ~p_red:p.p_red ~m_blue ~m_red
let n_procs p = p.p_blue + p.p_red
let capacity p = function Blue -> p.m_blue | Red -> p.m_red
let n_procs_of p = function Blue -> p.p_blue | Red -> p.p_red

let memory_of_proc p k =
  if k < 0 || k >= n_procs p then invalid_arg "Platform.memory_of_proc: out of range";
  if k < p.p_blue then Blue else Red

let procs_of p = function
  | Blue -> List.init p.p_blue Fun.id
  | Red -> List.init p.p_red (fun k -> p.p_blue + k)

let first_proc p = function Blue -> 0 | Red -> p.p_blue

(* Inlined so the flat-array read stays unboxed at float call sites. *)
let[@inline] w g i = function
  | Blue -> (Dag.Csr.w_blue g).(i)
  | Red -> (Dag.Csr.w_red g).(i)

let pp ppf p =
  Format.fprintf ppf "platform{blue: %d procs, M=%g; red: %d procs, M=%g}" p.p_blue p.m_blue
    p.p_red p.m_red
