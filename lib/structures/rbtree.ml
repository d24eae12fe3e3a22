open Ccsim

type color = Red | Black

type 'v node = {
  key : int;
  mutable value : 'v option;  (* None only in the nil sentinel *)
  mutable left : 'v node;
  mutable right : 'v node;
  mutable parent : 'v node;
  mutable color : color;
  line : Line.t;
}

type 'v t = { nil : 'v node; mutable root : 'v node; mutable size : int }

let fresh_line (core : Core.t) =
  Line.create ~label:"linux:node" core.Core.params core.Core.stats
    ~home_socket:core.Core.socket

let rd core (n : 'v node) = Line.read core n.line
let wr core (n : 'v node) = Line.write core n.line

let create core =
  let line = fresh_line core in
  let rec nil =
    { key = 0; value = None; left = nil; right = nil; parent = nil;
      color = Black; line }
  in
  { nil; root = nil; size = 0 }

let size t = t.size

let find core t key =
  let rec go n =
    if n == t.nil then None
    else begin
      rd core n;
      if key = n.key then n.value
      else if key < n.key then go n.left
      else go n.right
    end
  in
  go t.root

let floor core t key =
  let rec go n best =
    if n == t.nil then best
    else begin
      rd core n;
      if key = n.key then Some (n.key, Option.get n.value)
      else if key < n.key then go n.left best
      else go n.right (Some (n.key, Option.get n.value))
    end
  in
  go t.root None

let ceiling core t key =
  let rec go n best =
    if n == t.nil then best
    else begin
      rd core n;
      if key = n.key then Some (n.key, Option.get n.value)
      else if key > n.key then go n.right best
      else go n.left (Some (n.key, Option.get n.value))
    end
  in
  go t.root None

let left_rotate core t x =
  let y = x.right in
  wr core x;
  wr core y;
  x.right <- y.left;
  if y.left != t.nil then begin
    wr core y.left;
    y.left.parent <- x
  end;
  y.parent <- x.parent;
  if x.parent == t.nil then t.root <- y
  else begin
    wr core x.parent;
    if x == x.parent.left then x.parent.left <- y else x.parent.right <- y
  end;
  y.left <- x;
  x.parent <- y

let right_rotate core t x =
  let y = x.left in
  wr core x;
  wr core y;
  x.left <- y.right;
  if y.right != t.nil then begin
    wr core y.right;
    y.right.parent <- x
  end;
  y.parent <- x.parent;
  if x.parent == t.nil then t.root <- y
  else begin
    wr core x.parent;
    if x == x.parent.right then x.parent.right <- y else x.parent.left <- y
  end;
  y.right <- x;
  x.parent <- y

let rec insert_fixup core t z =
  if z.parent.color = Red then begin
    rd core z.parent.parent;
    if z.parent == z.parent.parent.left then begin
      let y = z.parent.parent.right in
      rd core y;
      if y.color = Red then begin
        wr core z.parent;
        wr core y;
        wr core z.parent.parent;
        z.parent.color <- Black;
        y.color <- Black;
        z.parent.parent.color <- Red;
        insert_fixup core t z.parent.parent
      end
      else begin
        let z = if z == z.parent.right then begin
            let z' = z.parent in
            left_rotate core t z';
            z'
          end
          else z
        in
        wr core z.parent;
        wr core z.parent.parent;
        z.parent.color <- Black;
        z.parent.parent.color <- Red;
        right_rotate core t z.parent.parent;
        insert_fixup core t z
      end
    end
    else begin
      let y = z.parent.parent.left in
      rd core y;
      if y.color = Red then begin
        wr core z.parent;
        wr core y;
        wr core z.parent.parent;
        z.parent.color <- Black;
        y.color <- Black;
        z.parent.parent.color <- Red;
        insert_fixup core t z.parent.parent
      end
      else begin
        let z = if z == z.parent.left then begin
            let z' = z.parent in
            right_rotate core t z';
            z'
          end
          else z
        in
        wr core z.parent;
        wr core z.parent.parent;
        z.parent.color <- Black;
        z.parent.parent.color <- Red;
        left_rotate core t z.parent.parent;
        insert_fixup core t z
      end
    end
  end;
  t.root.color <- Black

exception Replaced

let insert core t key value =
  try
    let y = ref t.nil and x = ref t.root in
    while !x != t.nil do
      rd core !x;
      y := !x;
      if key = !x.key then begin
        wr core !x;
        !x.value <- Some value;
        raise Replaced
      end
      else if key < !x.key then x := !x.left
      else x := !x.right
    done;
    let z =
      { key; value = Some value; left = t.nil; right = t.nil; parent = !y;
        color = Red; line = fresh_line core }
    in
    wr core z;
    if !y == t.nil then t.root <- z
    else begin
      wr core !y;
      if key < !y.key then !y.left <- z else !y.right <- z
    end;
    t.size <- t.size + 1;
    insert_fixup core t z
  with Replaced -> ()

let transplant core t u v =
  if u.parent == t.nil then t.root <- v
  else begin
    wr core u.parent;
    if u == u.parent.left then u.parent.left <- v else u.parent.right <- v
  end;
  (* CLRS: assign parent unconditionally (nil's parent is scratch space). *)
  v.parent <- u.parent

let rec minimum core t n =
  rd core n;
  if n.left == t.nil then n else minimum core t n.left

let rec delete_fixup core t x =
  if x != t.root && x.color = Black then begin
    if x == x.parent.left then begin
      let w = ref x.parent.right in
      rd core !w;
      if !w.color = Red then begin
        wr core !w;
        wr core x.parent;
        !w.color <- Black;
        x.parent.color <- Red;
        left_rotate core t x.parent;
        w := x.parent.right
      end;
      rd core !w.left;
      rd core !w.right;
      if !w.left.color = Black && !w.right.color = Black then begin
        wr core !w;
        !w.color <- Red;
        delete_fixup core t x.parent
      end
      else begin
        if !w.right.color = Black then begin
          wr core !w.left;
          wr core !w;
          !w.left.color <- Black;
          !w.color <- Red;
          right_rotate core t !w;
          w := x.parent.right
        end;
        wr core !w;
        wr core x.parent;
        !w.color <- x.parent.color;
        x.parent.color <- Black;
        if !w.right != t.nil then begin
          wr core !w.right;
          !w.right.color <- Black
        end;
        left_rotate core t x.parent
        (* loop terminates: x = root *)
      end
    end
    else begin
      let w = ref x.parent.left in
      rd core !w;
      if !w.color = Red then begin
        wr core !w;
        wr core x.parent;
        !w.color <- Black;
        x.parent.color <- Red;
        right_rotate core t x.parent;
        w := x.parent.left
      end;
      rd core !w.left;
      rd core !w.right;
      if !w.right.color = Black && !w.left.color = Black then begin
        wr core !w;
        !w.color <- Red;
        delete_fixup core t x.parent
      end
      else begin
        if !w.left.color = Black then begin
          wr core !w.right;
          wr core !w;
          !w.right.color <- Black;
          !w.color <- Red;
          left_rotate core t !w;
          w := x.parent.left
        end;
        wr core !w;
        wr core x.parent;
        !w.color <- x.parent.color;
        x.parent.color <- Black;
        if !w.left != t.nil then begin
          wr core !w.left;
          !w.left.color <- Black
        end;
        right_rotate core t x.parent
      end
    end
  end
  else x.color <- Black

let remove core t key =
  let rec locate n =
    if n == t.nil then None
    else begin
      rd core n;
      if key = n.key then Some n
      else if key < n.key then locate n.left
      else locate n.right
    end
  in
  match locate t.root with
  | None -> false
  | Some z ->
      let y = ref z in
      let y_color = ref z.color in
      let x =
        if z.left == t.nil then begin
          let x = z.right in
          transplant core t z z.right;
          x
        end
        else if z.right == t.nil then begin
          let x = z.left in
          transplant core t z z.left;
          x
        end
        else begin
          y := minimum core t z.right;
          y_color := !y.color;
          let x = !y.right in
          if !y.parent == z then x.parent <- !y
          else begin
            transplant core t !y !y.right;
            wr core !y;
            !y.right <- z.right;
            !y.right.parent <- !y
          end;
          transplant core t z !y;
          wr core !y;
          !y.left <- z.left;
          !y.left.parent <- !y;
          !y.color <- z.color;
          x
        end
      in
      if !y_color = Black then delete_fixup core t x;
      t.size <- t.size - 1;
      true

let to_alist t =
  let rec go n acc =
    if n == t.nil then acc
    else go n.left ((n.key, Option.get n.value) :: go n.right acc)
  in
  go t.root []

let check_invariants t =
  let fail msg = failwith ("Rbtree: " ^ msg) in
  if t.root.color <> Black then fail "root not black";
  let rec go n lo hi =
    if n == t.nil then 1
    else begin
      (match lo with Some l when n.key <= l -> fail "order" | _ -> ());
      (match hi with Some h when n.key >= h -> fail "order" | _ -> ());
      if n.color = Red && (n.left.color = Red || n.right.color = Red) then
        fail "red-red";
      let bl = go n.left lo (Some n.key) in
      let br = go n.right (Some n.key) hi in
      if bl <> br then fail "black height";
      bl + (if n.color = Black then 1 else 0)
    end
  in
  ignore (go t.root None None);
  let count = List.length (to_alist t) in
  if count <> t.size then fail "size mismatch"
